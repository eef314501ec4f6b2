"""Cell decompositions of R^n induced by tuples of tropical polynomials.

Each factor (a max-affine family, optionally extended by a virtual level as
a pseudo-term at the origin) partitions R^n into argmax regions; the
decomposition is the common refinement.  Every cell keeps its argmax
profile, one FactorCell per factor; bending and transversality are ranks of
its dual points.  The dual data, the points' convex hulls (the Minkowski
summands) and the dual polytope, realize the inclusion-reversing duality
with the mixed subdivision of the Minkowski sum of the extended Newton
polytopes; they are built on first read.

Factor regions are enumerated through the lifted hull conv{(a, coeff_a)} in
R^(n+1): an argmax set is the set of entries on a face exposed by some
(x, 1), so the occurring sets are the ANDs of facet-incidence bitmasks (over
all lifted entries) that include an upper facet, one whose normal has a
positive last coordinate.  The refinement search prunes a partial profile
as soon as one of its non-member inequalities is tight on the whole partial
cell: every point below it would tie that entry and so belongs to a finer
profile.

Where only the profiles are read, and no closures, `cayley_profiles` takes
them off one hull instead: the upper faces of the lifted Cayley polytope
that meet every layer, by the same mask reading as the factor regions.
`transversal` is the rank test on a profile's dual points that both
`Cell.is_transversal` and `tropnp compute`'s gate apply.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Mapping, Optional, Sequence

from .geom import (HBuilder, Polyhedron, _homog_point, _ireduce, convex_hull,
                   frac_vec, mask_closure, matrix_rank, vdot, vsub)
from .tropical import MINUS_INF, ExtRat, is_minus_inf


@dataclass(frozen=True, slots=True)
class FactorCell:
    """One argmax region of a single factor: closed cell plus dual points."""
    argmax: frozenset          # exponent tuples attaining the maximum
    has_level: bool            # the virtual level ties the maximum
    eq_h: tuple                # homogenized equality constraints
    in_h: tuple                # homogenized inequality constraints
    dual_points: tuple         # argmax exponents, the level mapped to the origin

    @property
    def bends(self) -> bool:
        return len(self.argmax) + (1 if self.has_level else 0) >= 2


def _entries(n, terms, level):
    entries = [(exp, Fraction(c), False) for exp, c in sorted(terms.items())]
    if not is_minus_inf(level):
        origin = tuple([0] * n)
        if any(exp == origin for exp, _, _ in entries):
            raise ValueError("virtual level clashes with an origin term")
        entries.append((origin, Fraction(level), True))
    return entries


def _cayley_faces(layers: Sequence[Sequence], lifts=None):
    """Point masks of the Cayley polytope conv{(p, e_i) : p in layers[i]},
    lifted to conv{(p, e_i, lift)} by `lifts` (a value per point) if given;
    the first unit vector is dropped, so that one layer is its own hull.

    Returns the hull's canonical `hrep()`, per inequality the mask of the
    points on its facet (bit k for the k-th point, layer by layer, all of
    them and not only vertices), and per face meeting every layer (mask,
    per-layer masks).  The faces are the ANDs of facet masks, the hull too
    when an equality holds on it; lifted, only those exposed by some (x, 1):
    the ANDs with an upper facet, or all when an equality involves the lift.
    """
    points, spans = [], []
    for i, layer in enumerate(layers):
        unit = tuple(int(j == i) for j in range(1, len(layers)))
        spans.append((len(points), (1 << len(layer)) - 1))
        points += [p + unit for p in layer]
    if lifts is not None:
        points = [p + (c,) for p, c in zip(points, itertools.chain(*lifts))]
    ineqs, eqs = Polyhedron.from_generators(len(points[0]), points).hrep()
    homog = [_homog_point(p) for p in points]
    facet_masks = []
    for a, b in ineqs:
        # the homogenized row of a . p <= b, zero on the facet's hyperplane
        h = (b.numerator,) + tuple(-x for x in a)
        facet_masks.append(sum(1 << k for k, q in enumerate(homog)
                               if vdot(h, q) == 0))
    if lifts is not None and not any(a[-1] != 0 for a, _ in eqs):
        seeds = [m for m, (a, _) in zip(facet_masks, ineqs) if a[-1] > 0]
    else:
        seeds = [(1 << len(points)) - 1] if eqs else facet_masks
    faces = [(m, [m >> s & full for s, full in spans])
             for m in mask_closure(seeds, facet_masks)]
    return ineqs, eqs, facet_masks, [(m, p) for m, p in faces if all(p)]


#: Several n = 3 maps' working sets (about 250 keys each); the oracle keys
#: the cache on levels that change from point to point.
FACTOR_CELL_CACHE_SIZE = 2048


def _build_factor_cells(n: int, terms: tuple, level) -> tuple:
    """All argmax regions of max over terms (+ level), as FactorCells."""
    entries = _entries(n, dict(terms), level)
    if not entries:
        return (FactorCell(frozenset(), False, (), (), ()),)
    if len(entries) == 1:
        exp, _, is_level = entries[0]
        return (FactorCell(frozenset() if is_level else frozenset([exp]),
                           is_level, (), (), (exp,)),)

    *_, found = _cayley_faces([[exp for exp, _, _ in entries]],
                              [[coeff for _, coeff, _ in entries]])

    pair_h = {}

    def constraint(i, j):
        """base entry i ties or beats entry j: (c_i - c_j) + (e_i - e_j) . x >= 0."""
        h = pair_h.get((i, j))
        if h is None:
            (ei, ci, _), (ej, cj, _) = entries[i], entries[j]
            d = ci - cj
            den = d.denominator
            h = pair_h[i, j] = _ireduce(
                (d.numerator,) + tuple(den * (a - b) for a, b in zip(ei, ej)))
        return h

    cells = []
    for mask, _ in found:
        members = [k for k in range(len(entries)) if mask >> k & 1]
        base = members[0]
        eq_h = tuple(constraint(base, k) for k in members[1:])
        in_h = tuple(constraint(base, k) for k in range(len(entries))
                     if not mask >> k & 1)
        argmax = frozenset(entries[k][0] for k in members if not entries[k][2])
        has_level = any(entries[k][2] for k in members)
        dual_points = tuple(sorted(entries[k][0] for k in members))
        cells.append(FactorCell(argmax, has_level, eq_h, in_h, dual_points))
    cells.sort(key=lambda c: (len(c.dual_points), c.dual_points))
    return tuple(cells)


_factor_cells = lru_cache(maxsize=FACTOR_CELL_CACHE_SIZE)(_build_factor_cells)


def factor_cells(n: int, terms: Mapping, level: ExtRat = MINUS_INF):
    return _factor_cells(n, tuple(sorted(terms.items())), level)


def _argmax_at(terms: Mapping, level, x):
    """(argmax exponent set, level ties) of max(terms, level) at x."""
    best = None if is_minus_inf(level) else Fraction(level)
    argmax = set()
    has_level = best is not None
    for exp, coeff in terms.items():
        v = vdot(x, exp) + coeff
        if best is None or v > best:
            best, argmax, has_level = v, {exp}, False
        elif v == best:
            argmax.add(exp)
    return frozenset(argmax), has_level


def cayley_profiles(n: int, term_maps: Sequence[Mapping]) -> list:
    """Per factor, the sorted dual points (argmax exponents) of every cell
    of the common refinement of the factors' argmax decompositions; every
    term map must be nonempty.

    These are the upper faces of the lifted Cayley polytope
    conv{(a, e_i, c_a) : a in A_i} that meet every layer (Huber, Rambau and
    Santos, JEMS 2, 2000): (x, lambda, 1) exposes the points attaining
    max_i (f_i(x) + lambda_i), and with lambda_i = -f_i(x) those are the
    argmax sets of all factors at x.
    """
    layers = [sorted(terms) for terms in term_maps]
    *_, faces = _cayley_faces(layers, [[Fraction(terms[e]) for e in exps]
                                      for terms, exps in zip(term_maps, layers)])
    return [tuple(tuple(e for k, e in enumerate(exps) if part >> k & 1)
                  for part, exps in zip(parts, layers))
            for _, parts in faces]


def transversal(duals: Sequence[Sequence]) -> bool:
    """Whether the dual points of a cell, one sequence per factor, span a
    dual cell whose dimension is the sum of the summands' dimensions:
    rank(union of the D_i) == sum of rank(D_i), D_i the differences of the
    i-th factor's points to its first one."""
    diffs = [[vsub(p, d[0]) for p in d[1:]] for d in duals if len(d) > 1]
    if len(diffs) < 2:
        return True
    return matrix_rank([r for d in diffs for r in d]) \
        == sum(matrix_rank(d) for d in diffs)


# ---------------------------------------------------------------------------
# cells and complexes
# ---------------------------------------------------------------------------

class Cell:
    """A (relatively open) cell, stored by its closure, with its argmax
    profile: one FactorCell per factor.  The summands and the dual polytope
    are built on first read."""

    __slots__ = ("id", "closure", "dim", "profile", "argmax", "level_flags",
                 "_summands", "_dual")

    def __init__(self, cid, closure, profile):
        self.id = cid
        self.closure = closure
        self.dim = closure.dim
        self.profile = profile
        self.argmax = tuple(fc.argmax for fc in profile)
        self.level_flags = tuple(fc.has_level for fc in profile)
        self._summands = self._dual = None

    @property
    def summands(self):
        """Per factor, the convex hull of the dual points."""
        if self._summands is None:
            origin = (0,) * self.closure.n
            self._summands = tuple(convex_hull(fc.dual_points or (origin,))
                                   for fc in self.profile)
        return self._summands

    @property
    def dual(self):
        """The Minkowski sum of the summands."""
        if self._dual is None:
            self._dual = reduce(Polyhedron.minkowski_sum,
                                self.summands).dual_description()
        return self._dual

    def _differences(self):
        """Per factor, the dual points' differences to the first one."""
        return [[vsub(p, fc.dual_points[0]) for p in fc.dual_points[1:]]
                for fc in self.profile]

    def summand_dims(self):
        return tuple(matrix_rank(d) for d in self._differences())

    def is_transversal(self):
        """dim dual == sum of the summand dims, as ranks of the differences."""
        return transversal([fc.dual_points for fc in self.profile])

    def __repr__(self):
        return f"Cell(id={self.id}, dim={self.dim})"


class CellComplex:
    """A polyhedral cell decomposition of R^n with dual mixed-subdivision data.

    With `bend_only` the complex holds only the cells on which every factor
    bends (the virtual preimage of the level vector), not a full partition.
    """

    def __init__(self, n, term_maps, levels, cells, bend_only=False):
        self.n = n
        self.term_maps = tuple(term_maps)
        self.levels = tuple(levels)
        self.cells = tuple(cells)
        self.bend_only = bend_only
        self._sum = None

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)

    @property
    def sum_polytope(self) -> Polyhedron:
        """Minkowski sum of the factors' extended Newton polytopes."""
        if self._sum is None:
            origin = (0,) * self.n
            hulls = [convex_hull(list(terms) if terms and is_minus_inf(level)
                                 else [*terms, origin])
                     for terms, level in zip(self.term_maps, self.levels)]
            self._sum = reduce(Polyhedron.minkowski_sum,
                               hulls).dual_description()
        return self._sum

    def is_transversal(self):
        """(all cells transversal, ids of offending cells)."""
        offenders = [c.id for c in self.cells if not c.is_transversal()]
        return (not offenders, offenders)

    def cell_containing(self, x):
        """The unique cell whose relative interior contains x (full complexes)."""
        x = frac_vec(x)
        for cell in self.cells:
            if not cell.closure.contains(x):
                continue
            ok = True
            for terms, level, S, has in zip(self.term_maps, self.levels,
                                            cell.argmax, cell.level_flags):
                am, hl = _argmax_at(terms, level, x)
                if am != S or hl != has:
                    ok = False
                    break
            if ok:
                return cell
        return None

    def counts_by_dim(self):
        counts = {}
        for c in self.cells:
            counts[c.dim] = counts.get(c.dim, 0) + 1
        return counts


class MixedSubdivision:
    """The dual subdivision of the Minkowski sum, aligned with the complex."""

    def __init__(self, complex_: CellComplex):
        self.complex = complex_
        self.entries = complex_.cells

    def maximal(self):
        top = self.complex.sum_polytope.dim
        return [e for e in self.entries if e.dual.dim == top]


def decomposition(term_maps: Sequence[Mapping], levels: Optional[Sequence[ExtRat]] = None,
                  n: Optional[int] = None, *, bend_only: bool = False) -> CellComplex:
    """Common refinement of the argmax-region decompositions of the factors.

    term_maps: one mapping exponent -> coefficient per factor (may be empty).
    levels: per-factor virtual level; all -inf gives the plain corner-locus
    decomposition.  Every nonempty profile intersection is kept once, keyed
    by the exact per-factor argmax sets on its relative interior.
    """
    if n is None:
        n = next(len(e) for tm in term_maps for e in tm)
    if levels is None:
        levels = [MINUS_INF] * len(term_maps)
    if len(levels) != len(term_maps):
        raise ValueError("levels length must match the number of factors")

    factor_lists = []
    for terms, level in zip(term_maps, levels):
        cells = factor_cells(n, terms, level)
        if bend_only:
            cells = tuple(c for c in cells if c.bends)
        factor_lists.append(cells)

    found = _refine(n, factor_lists)
    found.sort(key=lambda t: (t[1].dim, t[1].canonical_key()))
    cells = [Cell(cid, poly, profile)
             for cid, (profile, poly) in enumerate(found)]
    return CellComplex(n, term_maps, levels, cells, bend_only=bend_only)


def _refine(n: int, factor_lists: Sequence[Sequence[FactorCell]]) -> list:
    """(profile, closure) of every nonempty cell of the common refinement,
    one FactorCell per factor list, in search order."""
    found = []

    def search(i, builder, profile, in_bits):
        # in_bits: the builder's bits of every in_h inequality added so far.
        # One of them tight on the whole node polyhedron stays tight on every
        # nonempty leaf below it, so a relative-interior point there would
        # tie a non-member entry: the points belong to a finer profile.
        if i == len(factor_lists):
            found.append((profile, builder.to_polyhedron()))
            return
        for fc in factor_lists[i]:
            b = builder.clone()
            for h in fc.eq_h:
                b.add_homog(h, equality=True)
            if b.is_empty:
                continue
            first = b.ncons
            for h in fc.in_h:
                b.add_homog(h)
            if b.is_empty:
                continue
            bits = in_bits | ((1 << b.ncons) - (1 << first))
            if b.tight_mask & bits:
                continue
            search(i + 1, b, profile + (fc,), bits)

    search(0, HBuilder(n), (), 0)
    return found


def corner_locus_pieces(terms: Mapping, n: int) -> list:
    """The corner locus of one tropical polynomial as closed cells."""
    cx = decomposition([terms], [MINUS_INF], n=n)
    return [c.closure for c in cx.cells if len(c.argmax[0]) >= 2]


def regular_subdivision(support: Sequence, lift: Mapping) -> MixedSubdivision:
    """Regular subdivision of conv(support) from the lifted upper hull.

    Max-plus convention: the subdivision cells are the projections of the
    upper faces of conv{(a, lift(a))}, i.e. the domains where each argmax
    set is attained.  The origin is allowed here (plain lifted supports, no
    virtual level is involved).
    """
    support = [tuple(int(x) for x in p) for p in support]
    if not support:
        raise ValueError("empty support")
    terms = {p: Fraction(lift[p]) for p in support}
    cx = decomposition([terms], [MINUS_INF], n=len(support[0]))
    return MixedSubdivision(cx)


# ---------------------------------------------------------------------------
# duality invariants
# ---------------------------------------------------------------------------

def duality_violations(cx: CellComplex) -> list:
    """Violations of the cell/dual-polytope duality on a complex.

    Checks, cell by cell: the dual (the Minkowski sum of the summands' hulls)
    equals the convex hull of all sums taking one dual point per factor; the
    cell and dual dimensions are complementary; their affine spans are
    orthogonal; and the dual lies on a proper facet of the Minkowski-sum
    polytope exactly when the cell recedes along that facet's outward normal.
    """
    problems = []
    sum_poly = cx.sum_polytope
    ineqs, _ = sum_poly.hrep()
    facets = [(normal, sum_poly.face_in_direction(normal)) for normal, _ in ineqs]
    origin = (0,) * cx.n
    for cell in cx.cells:
        choices = [fc.dual_points or (origin,) for fc in cell.profile]
        sums = [tuple(map(sum, zip(origin, *pick)))
                for pick in itertools.product(*choices)]
        if not convex_hull(sums).equal_as_sets(cell.dual):
            problems.append((cell.id, "dual is not the hull of the dual point sums"))
        if cell.dim + cell.dual.dim != cx.n:
            problems.append((cell.id, "dim cell + dim dual != n"))
        cell_dirs = _direction_span(cell.closure)
        dual_dirs = _direction_span(cell.dual)
        if any(vdot(u, v) != 0 for u in cell_dirs for v in dual_dirs):
            problems.append((cell.id, "cell and dual spans not orthogonal"))
        rec = cell.closure.recession_cone()
        for normal, facet in facets:
            on_facet = facet.contains_polyhedron(cell.dual)
            recedes = rec.contains(normal)
            if on_facet != recedes:
                problems.append(
                    (cell.id, f"facet duality failed for normal {normal}"))
    return problems


def _direction_span(p: Polyhedron):
    verts = p.vertices
    dirs = [vsub(v, verts[0]) for v in verts[1:]]
    dirs += [frac_vec(r) for r in p.rays]
    dirs += [frac_vec(l) for l in p.lineality]
    return [d for d in dirs if any(x != 0 for x in d)]
