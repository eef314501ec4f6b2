"""Cell decompositions of R^n induced by tuples of tropical polynomials.

Each factor, a map from exponents to coefficients (max-affine: a constant
term sits at the origin exponent), partitions R^n into argmax regions; the
decomposition is the common refinement.  Every cell keeps its argmax
profile, one FactorCell per factor, holding the sorted exponents that
attain the maximum, its dual points; bending and transversality are ranks
of those points.  They are the dual data of the inclusion-reversing
duality with the mixed subdivision of the Minkowski sum of the factors'
Newton polytopes; only their ranks are read here.  The oracle's virtual
preimage of a level y_i is the corner locus of the factor extended by the
constant term y_i, so it is one more term and no special case here.

Factor regions are enumerated through the lifted hull conv{(a, coeff_a)} in
R^(n+1): an argmax set is the set of terms on a face exposed by some
(x, 1), so the occurring sets are the ANDs of facet-incidence bitmasks (over
all lifted terms) that include an upper facet, one whose normal has a
positive last coordinate.  The refinement search branches on the factor
with the fewest cells first, skips a factor cell one of whose equality rows
cannot vanish on the partial cell before building anything, and prunes a
partial profile as soon as one of its non-member inequalities is tight on
the whole partial cell: every point below it would tie that term and so
belongs to a finer profile.  `has_dicritical_bend_cell`, the oracle's grid
verdict, runs the same search over the bend-only cells, dropping every
partial cell whose recession cone has no direction with a positive
coordinate, and stops at the first cell it reaches.

Where only the profiles are read, and no closures, `cayley_profiles` takes
them off one hull instead: the upper faces of the lifted Cayley polytope
that meet every layer, by the same mask reading as the factor regions.
`transversal` is the rank test on a profile's dual points that `tropnp
compute`'s gate applies, and `dual_ranks` the ranks that it compares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_
from typing import Mapping, Sequence

from .geom import (_DD, Polyhedron, _homog_point, _incidence_masks, _ireduce,
                   _positive_direction, mask_closure, matrix_rank, vdot, vsub)


@dataclass(frozen=True, slots=True)
class FactorCell:
    """One argmax region of a single factor: its dual points (the sorted
    exponents attaining the maximum) and its closed cell."""
    dual_points: tuple         # sorted exponent tuples attaining the maximum
    eq_h: tuple                # homogenized equality constraints
    in_h: tuple                # homogenized inequality constraints

    @property
    def bends(self) -> bool:
        return len(self.dual_points) >= 2


def _cayley_faces(layers: Sequence[Sequence], lifts=None):
    """Point masks of the Cayley polytope conv{(p, e_i) : p in layers[i]},
    lifted to conv{(p, e_i, lift)} by `lifts` (a value per point) if given;
    the first unit vector is dropped, so that one layer is its own hull.

    Returns the integer outer normals of the hull's canonical inequalities
    and equalities, per inequality the mask of the points on its facet (bit
    k for the k-th point, layer by layer, all of them and not only
    vertices), and per face meeting every layer (mask, per-layer masks).
    The faces are the ANDs of facet masks, the hull too when an equality
    holds on it; lifted, only those exposed by some (x, 1): the ANDs with an
    upper facet, or all when an equality involves the lift.
    """
    points, spans = [], []
    for i, layer in enumerate(layers):
        unit = tuple(int(j == i) for j in range(1, len(layers)))
        spans.append((len(points), (1 << len(layer)) - 1))
        points += [p + unit for p in layer]
    if lifts is not None:
        points = [p + (c,) for p, c in zip(points, itertools.chain(*lifts))]
    hin, heq = Polyhedron.from_generators(len(points[0]), points)._rows()
    facet_masks = _incidence_masks(hin, [_homog_point(p) for p in points])
    # a row (offset, -normal) holds on the points x with normal . x <= offset
    ineqs, eqs = ([tuple(-x for x in h[1:]) for h in rows]
                  for rows in (hin, heq))
    if lifts is not None and not any(a[-1] != 0 for a in eqs):
        seeds = [m for m, a in zip(facet_masks, ineqs) if a[-1] > 0]
    else:
        seeds = [(1 << len(points)) - 1] if eqs else facet_masks
    faces = [(m, [m >> s & full for s, full in spans])
             for m in mask_closure(seeds, facet_masks)]
    return ineqs, eqs, facet_masks, [(m, p) for m, p in faces if all(p)]


#: Several n = 3 maps' working sets (about 250 keys each); the oracle keys
#: the cache on term maps whose origin term, the level, changes from point
#: to point.
FACTOR_CELL_CACHE_SIZE = 2048


def _build_factor_cells(n: int, terms: tuple) -> tuple:
    """All argmax regions of max over the (exponent, coefficient) pairs
    `terms`, sorted by exponent, as FactorCells."""
    exps = tuple(exp for exp, _ in terms)
    if len(terms) < 2:
        return (FactorCell(exps, (), ()),)
    coeffs = [Fraction(c) for _, c in terms]
    *_, found = _cayley_faces([exps], [coeffs])

    pair_h = {}

    def constraint(i, j):
        """base term i ties or beats term j: (c_i - c_j) + (e_i - e_j) . x >= 0."""
        h = pair_h.get((i, j))
        if h is None:
            d = coeffs[i] - coeffs[j]
            den = d.denominator
            h = pair_h[i, j] = _ireduce(
                (d.numerator,) + tuple(den * (a - b)
                                       for a, b in zip(exps[i], exps[j])))
        return h

    cells = []
    for mask, _ in found:
        members = [k for k in range(len(terms)) if mask >> k & 1]
        base = members[0]
        eq_h = tuple(constraint(base, k) for k in members[1:])
        in_h = tuple(constraint(base, k) for k in range(len(terms))
                     if not mask >> k & 1)
        cells.append(FactorCell(tuple(exps[k] for k in members), eq_h, in_h))
    cells.sort(key=lambda c: (len(c.dual_points), c.dual_points))
    return tuple(cells)


_factor_cells = lru_cache(maxsize=FACTOR_CELL_CACHE_SIZE)(_build_factor_cells)


def factor_cells(n: int, terms: Mapping):
    return _factor_cells(n, tuple(sorted(terms.items())))


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


def dual_ranks(duals: Sequence[Sequence]):
    """(rank of the union of the D_i, the ranks of the D_i) of a cell's dual
    points, one sequence per factor, D_i the differences of the i-th
    factor's points to its first one, for the factors of two points or more."""
    diffs = [[vsub(p, d[0]) for p in d[1:]] for d in duals if len(d) > 1]
    return (matrix_rank([r for d in diffs for r in d]),
            tuple(matrix_rank(d) for d in diffs))


def transversal(duals: Sequence[Sequence]) -> bool:
    """Whether a cell's dual cell has the sum of the summands' dimensions:
    the ranks of `dual_ranks` add up, as they do for fewer than two D_i."""
    if sum(len(d) > 1 for d in duals) < 2:
        return True
    union, summands = dual_ranks(duals)
    return union == sum(summands)


# ---------------------------------------------------------------------------
# cells and complexes
# ---------------------------------------------------------------------------

class Cell:
    """A (relatively open) cell, stored by its closure, with its argmax
    profile: one FactorCell per factor."""

    __slots__ = ("id", "closure", "dim", "profile")

    def __init__(self, cid, closure, profile):
        self.id = cid
        self.closure = closure
        self.dim = closure.dim
        self.profile = profile

    def __repr__(self):
        return f"Cell(id={self.id}, dim={self.dim})"


class CellComplex:
    """A polyhedral cell decomposition of R^n.  From `decomposition` with
    `bend_only` it holds only the cells on which every factor bends (for
    term maps extended by levels at the origin, the virtual preimage of the
    level vector), not a full partition."""

    def __init__(self, n, cells):
        self.n = n
        self.cells = tuple(cells)

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)


def _factor_lists(term_maps: Sequence[Mapping], n: int, bend_only: bool):
    """Per factor, its cells, only those on which it bends with `bend_only`."""
    return [tuple(c for c in factor_cells(n, terms) if c.bends or not bend_only)
            for terms in term_maps]


def decomposition(term_maps: Sequence[Mapping], n: int, *,
                  bend_only: bool = False) -> CellComplex:
    """Common refinement of the argmax-region decompositions of the factors.

    term_maps: one mapping exponent -> coefficient per factor (may be empty).
    Every nonempty profile intersection is kept once, keyed by the exact
    per-factor argmax sets on its relative interior; with `bend_only`, only
    the cells on which every factor bends.
    """
    found = _refine(n, _factor_lists(term_maps, n, bend_only))
    found.sort(key=lambda t: (t[1].dim, t[1].canonical_key()))
    cells = [Cell(cid, poly, profile)
             for cid, (profile, poly) in enumerate(found)]
    return CellComplex(n, cells)


def has_dicritical_bend_cell(term_maps: Sequence[Mapping], n: int) -> bool:
    """Whether some cell of `decomposition(term_maps, n, bend_only=True)`
    has a closure whose recession cone holds a direction with a positive
    coordinate; found by a search that stops at the first such cell, with
    no complex built or sorted."""
    return bool(_refine(n, _factor_lists(term_maps, n, True), reach=True))


def _meets(dd: _DD, h) -> bool:
    """Whether the row h is zero at some point (y0 > 0) of the nonempty
    cone dd: along a lineality direction off its hyperplane, at a point on
    it, or between a point and a generator strictly on opposite sides."""
    if any(vdot(h, l) for l in dd.lin):
        return True
    above = below = point_above = point_below = False
    for r in dd.rays:
        d = vdot(h, r)
        if d > 0:
            above = True
            point_above = point_above or r[0] > 0
        elif d < 0:
            below = True
            point_below = point_below or r[0] > 0
        elif r[0] > 0:
            return True
    return (point_above and below) or (point_below and above)


def _refine(n: int, factor_lists: Sequence[Sequence[FactorCell]], *,
            reach: bool = False) -> list:
    """(profile, closure) of every nonempty cell of the common refinement,
    one FactorCell per factor list, in search order; with `reach`, at most
    one: the first whose closure recedes in a direction with a positive
    coordinate.

    The search branches first on the list with the fewest cells (ties in
    list order), which keeps the set of leaves: a leaf is a profile whose
    cell is nonempty with no non-member row tight on it all, and the cut at
    an inner node is that test on a superset.  A cell's recession cone lies
    in that of every node above it, so `reach` drops a node whose cone has
    no direction with a positive coordinate.
    """
    order = sorted(range(len(factor_lists)), key=lambda i: len(factor_lists[i]))
    place = sorted(range(len(order)), key=order.__getitem__)  # inverse of order
    found = []

    def empty(dd):
        return not any(r[0] > 0 for r in dd.rays)

    def search(depth, dd, chosen, in_bits):
        # dd: the homogenization cone of the node polyhedron, constraint k
        # owning bit k.  in_bits: the bits of every in_h inequality added so
        # far.  One of them tight on the whole node polyhedron (on every
        # extreme ray: the lineality lies in every hyperplane) stays tight
        # on every nonempty leaf below it, so a relative-interior point there
        # would tie a non-member entry: the points belong to a finer profile.
        if depth == len(order):
            found.append((tuple(chosen[k] for k in place),
                          Polyhedron._from_homog_generators(n, dd.lin, dd.rays)))
            return
        for fc in factor_lists[order[depth]]:
            if not all(_meets(dd, h) for h in fc.eq_h):
                continue
            d = dd.clone()
            for h in fc.eq_h:
                d.add(h, equality=True)
            if empty(d):
                continue
            first = d.ncons
            for h in fc.in_h:
                d.add(h)
            if empty(d):
                continue
            bits = in_bits | ((1 << d.ncons) - (1 << first))
            if reduce(and_, d.masks) & bits:
                continue
            if reach and _positive_direction(
                    [r[1:] for r in d.rays if r[0] == 0], d.lin) is None:
                continue
            search(depth + 1, d, chosen + (fc,), bits)
            if reach and found:
                return

    root = _DD(n + 1)
    root.add((1,) + (0,) * n)  # x0 >= 0
    search(0, root, (), 0)
    return found
