import functools
import itertools
import operator
import os
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from tropnp.engine import (GenericityError, TNPPiece, TNPSet, analyze_gamma,
                           analyze_sigma)
from tropnp.faces import delta0, enumerate_tuple_faces
from tropnp.geom import (_DD, GeometryError, Polyhedron, convex_hull, frac_vec,
                         int_rref, mask_closure, primitive, vdot, vsub)
from tropnp.subdivision import decomposition, transversal
from tropnp.tropical import TropicalMap, TropicalPolynomial

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


# ---------------------------------------------------------------------------
# reference constructions that tests compare the program against
# ---------------------------------------------------------------------------

def intersect(p, q):
    """p and q intersected, from the union of their H-representations."""
    if p.n != q.n:
        raise GeometryError("ambient dimension mismatch")
    if p.is_empty or q.is_empty:
        return Polyhedron.empty(p.n)
    i1, e1 = p.hrep()
    i2, e2 = q.hrep()
    return Polyhedron.from_hrep(p.n, i1 + i2, e1 + e2)


def proper_faces_with_active(poly):
    """The nonempty faces F != poly, sorted by (dim, canonical key), each
    paired with the indices of the facets containing it: the ANDs of the
    facet incidence masks that hold a point."""
    if poly.is_empty:
        return []
    gens, masks = poly._facet_masks()
    npts = len(poly._points)
    point_bits = (1 << npts) - 1
    faces = []
    for mask in mask_closure(masks, masks):
        if not mask & point_bits:
            continue
        idx = [k for k in range(len(gens)) if mask >> k & 1]
        face = poly._sub([gens[k] for k in idx if k < npts],
                         [gens[k][1:] for k in idx if k >= npts])
        faces.append((face, tuple(i for i, m in enumerate(masks)
                                  if mask & m == mask)))
    faces.sort(key=lambda fa: (fa[0].dim, fa[0].canonical_key()))
    return faces


def proper_faces(poly):
    """All nonempty faces F != poly, including the facets and vertices."""
    return [f for f, _ in proper_faces_with_active(poly)]


def normal_cone_of_face(poly, active_facets):
    """Outer normal cone of a face of `poly`, spanned by the normals of the
    facets through it plus the equality normals."""
    ineqs, eqs = poly.hrep()
    return Polyhedron.from_generators(
        poly.n, [(0,) * poly.n], [primitive(ineqs[i][0]) for i in active_facets],
        [primitive(a) for a, _ in eqs])


def minkowski_sum_of(polytopes):
    """The Minkowski sum, in canonical form: Delta0 of `tup.members`, or the
    summed face of a tuple-face's `members`."""
    return reduce(Polyhedron.minkowski_sum, polytopes).dual_description()


def reference_transversality_report(F, faces):
    """The all-face transversality gate: the argmax profiles of the offending
    cells of the full decomposition and of the restricted decomposition of
    every tuple-face, each complex built and each cell checked."""
    complexes = [(None, decomposition(F.term_maps(), F.n))]
    complexes += [(face.id, analyze_gamma(F, face).complex) for face in faces]
    return [{"face": face, "cells": bad} for face, cx in complexes
            if (bad := offending_profiles(cx))]


def cell_profile(cell):
    """A cell's argmax profile: the dual points of each factor."""
    return tuple(fc.dual_points for fc in cell.profile)


def offending_profiles(cx):
    """The sorted argmax profiles of the cells of a complex that are not
    transversal."""
    return sorted(p for p in map(cell_profile, cx) if not transversal(p))


def reference_arrangement(n, hyperplanes):
    """Sign-vector cells of the central arrangement, as (signs, closure)
    pairs: sign +1 is the closed side a . x >= 0, -1 is a . x <= 0 and 0 the
    hyperplane, so a cone comes once for every sign vector describing it."""
    cells = []

    def rec(i, dd, signs):
        if i == len(hyperplanes):
            poly = Polyhedron._from_homog_generators(n, dd.lin, dd.rays)
            if poly.is_empty:
                return
            cells.append((signs, poly))
            return
        a = hyperplanes[i]
        for s in (-1, 0, 1):
            d = dd.clone()
            d.add((0,) + tuple(-x if s < 0 else x for x in a), equality=s == 0)
            if not any(r[0] > 0 for r in d.rays):
                continue
            rec(i + 1, d, signs + (s,))

    root = _DD(n + 1)
    root.add((1,) + (0,) * n)  # x0 >= 0
    rec(0, root, ())
    return cells


def reference_refine(n, factor_lists):
    """(profile, closure) of every nonempty cell of the common refinement,
    one FactorCell per factor list, by the plain search: factor lists in
    their own order, no meet test before a clone, every leaf kept."""
    found = []

    def empty(dd):
        return not any(r[0] > 0 for r in dd.rays)

    def search(i, dd, profile, in_bits):
        if i == len(factor_lists):
            found.append((profile, Polyhedron._from_homog_generators(
                n, dd.lin, dd.rays)))
            return
        for fc in factor_lists[i]:
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
            if reduce(operator.and_, d.masks) & bits:
                continue
            search(i + 1, d, profile + (fc,), bits)

    root = _DD(n + 1)
    root.add((1,) + (0,) * n)  # x0 >= 0
    search(0, root, (), 0)
    return found


def face_in_direction(poly, alpha):
    """The argmax face of <alpha, .> on a nonempty polyhedron, from its
    reduced generators; None when unbounded in that direction."""
    a = primitive(alpha)
    if poly.is_empty:
        raise GeometryError("empty polyhedron has no faces")
    if not any(a):
        raise GeometryError("direction must be nonzero")
    if any(vdot(a, r) > 0 for r in poly.rays) \
            or any(vdot(a, l) for l in poly.lineality):
        return None
    values = [vdot(a, v) for v in poly.vertices]
    top = max(values)
    return Polyhedron.from_generators(
        poly.n, [v for v, x in zip(poly.vertices, values) if x == top],
        [r for r in poly.rays if vdot(a, r) == 0], poly.lineality)


def supremum(poly, alpha):
    """sup of <alpha, .> over a nonempty polyhedron, read off its image on
    the line; None when unbounded above."""
    image = poly.affine_image([alpha], [0])
    if image.lineality or any(r[0] > 0 for r in image.rays):
        return None
    return max(v[0] for v in image.vertices)


def restrict(p, face):
    """The terms of the tropical polynomial p whose exponents lie in face."""
    return {exp: c for exp, c in p.terms.items() if face.contains(exp)}


def rref(rows):
    """Reduced row echelon form over Q: (rows with pivot 1, pivot columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows):
    return len(rref(rows)[0])


def reduce_modulo(v, rows, pivots):
    """v minus the combination of RREF rows that zeroes their pivot columns."""
    v = list(map(Fraction, v))
    for row, c in zip(rows, pivots):
        if v[c] != 0:
            f = v[c] / row[c]
            v = [x - f * y for x, y in zip(v, row)]
    return tuple(v)


def canonical_key_from(points, rays, lineality):
    """Polyhedron.canonical_key of conv(points) + cone(rays) + span(lineality)
    for extreme generators, rebuilt through the reference reduction."""
    lins, pivots = rref(lineality) if lineality else ([], [])
    pts = sorted({reduce_modulo(p, lins, pivots) for p in points})
    rys = set()
    for r in rays:
        r = reduce_modulo(r, lins, pivots)
        if any(r):
            rys.add(primitive(r))
    return tuple(pts), tuple(sorted(rys)), tuple(primitive(l) for l in lins)



# ---------------------------------------------------------------------------
# sets: equality, and coverage by a finite union
# ---------------------------------------------------------------------------

def equal_as_sets(p, q):
    return p.contains_polyhedron(q) and q.contains_polyhedron(p)


def vscale(c, v):
    c = Fraction(c)
    return tuple(c * a for a in v)


def strict_witness(n, ineqs, eqs, stricts):
    """A point of {ineqs, eqs, strict inequalities a . x < b}, or None.

    Lifted with a slack t: a . x + t <= b and t maximized; the region is
    nonempty iff sup t > 0, and a generator with positive slack yields an
    explicit witness.
    """
    lifted = [(tuple(a) + (0,), b) for a, b in ineqs]
    lifted += [(tuple(a) + (1,), b) for a, b in stricts]
    leqs = [(tuple(a) + (0,), b) for a, b in eqs]
    lifted.append(((0,) * n + (-1,), 0))  # t >= 0
    P = Polyhedron.from_hrep(n + 1, lifted, leqs)
    if P.is_empty:
        return None
    verts = P.vertices
    for v in verts:
        if v[-1] > 0:
            return v[:-1]

    def shifted(d):
        return tuple(a + b for a, b in zip(verts[0], d))[:-1]
    for r in P.rays:
        if r[-1] > 0:
            return shifted(r)
    for l in P.lineality:
        if l[-1] > 0:
            return shifted(l)
        if l[-1] < 0:
            return shifted(tuple(-x for x in l))
    return None


def _strict_region_nonempty(n, ineqs, eqs, stricts):
    return strict_witness(n, ineqs, eqs, stricts) is not None


def covered_by_union(P, pieces):
    """Exact decision of P <= union(pieces), all closed polyhedra."""
    if P.is_empty:
        return True
    ineqs, eqs = P.hrep()
    pieces = [q for q in pieces if not q.is_empty]
    return _covered(P.n, list(ineqs), list(eqs), [], pieces)


def _covered(n, ineqs, eqs, stricts, pieces):
    if not _strict_region_nonempty(n, ineqs, eqs, stricts):
        return True
    if not pieces:
        return False
    q = pieces[0]
    rest = pieces[1:]
    qineqs, qeqs = q.hrep()
    cons = list(qineqs)
    for a, b in qeqs:
        cons.append((a, b))
        cons.append((vscale(-1, a), -b))
    # split off the part strictly outside each successive constraint of q;
    # what remains satisfies all of them, hence lies inside q.
    cur_ineqs = list(ineqs)
    for a, b in cons:
        out_strict = stricts + [(vscale(-1, a), -b)]  # a . x > b
        if not _covered(n, cur_ineqs, eqs, out_strict, rest):
            return False
        cur_ineqs = cur_ineqs + [(a, b)]
    return True


def union_equal(pieces_a, pieces_b):
    """Exact set equality of two finite unions of polyhedra."""
    return (all(covered_by_union(p, pieces_b) for p in pieces_a)
            and all(covered_by_union(q, pieces_a) for q in pieces_b))


# ---------------------------------------------------------------------------
# cells: corner loci, argmax profiles, dual polytopes and duality
# ---------------------------------------------------------------------------

def corner_locus_pieces(terms, n):
    """The corner locus of one tropical polynomial as closed cells."""
    return [c.closure for c in decomposition([terms], n).cells
            if len(c.profile[0].dual_points) >= 2]


def with_level(terms, level):
    """The terms of max(f, y) for f's terms: the constant term y at the
    origin exponent added."""
    return {**terms, (0,) * len(next(iter(terms))): Fraction(level)}


def argmax_at(terms, x):
    """The sorted exponents attaining max over terms at x."""
    best, argmax = None, []
    for exp, coeff in terms.items():
        v = vdot(x, exp) + coeff
        if best is None or v > best:
            best, argmax = v, [exp]
        elif v == best:
            argmax.append(exp)
    return tuple(sorted(argmax))


def cell_containing(cx, term_maps, x):
    """The unique cell of a full complex whose relative interior holds x."""
    x = frac_vec(x)
    for cell in cx.cells:
        if cell.closure.contains(x) and all(
                argmax_at(terms, x) == fc.dual_points
                for terms, fc in zip(term_maps, cell.profile)):
            return cell
    return None


def cell_summands(cell):
    """Per factor, the convex hull of the cell's dual points (the origin for
    a factor without any)."""
    return _summands(cell.closure.n, tuple(fc.dual_points for fc in cell.profile))


def cell_dual(cell):
    """The dual polytope of a cell: the Minkowski sum of its summands."""
    return _dual(cell.closure.n, tuple(fc.dual_points for fc in cell.profile))


# keyed by the dual points, which are all a dual depends on: the property
# suite reads each cell's dual in several checks
@functools.lru_cache(maxsize=4096)
def _summands(n, dual_points):
    return tuple(convex_hull(points or ((0,) * n,)) for points in dual_points)


@functools.lru_cache(maxsize=4096)
def _dual(n, dual_points):
    return minkowski_sum_of(_summands(n, dual_points))


def summand_ranks(cell):
    """Per factor, the rank of the dual points' differences to the first."""
    return tuple(rank([vsub(p, fc.dual_points[0]) for p in fc.dual_points[1:]])
                 for fc in cell.profile)


def sum_polytope(n, term_maps):
    """Minkowski sum of the factors' Newton polytopes (the origin for a
    factor without terms)."""
    return minkowski_sum_of([convex_hull(list(terms) or [(0,) * n])
                             for terms in term_maps])


def duality_violations(cx, term_maps):
    """Violations of the cell/dual-polytope duality on a complex.

    Checks, cell by cell: the dual (the Minkowski sum of the summands' hulls)
    equals the convex hull of all sums taking one dual point per factor; the
    cell and dual dimensions are complementary; their affine spans are
    orthogonal; and the dual lies on a proper facet of the Minkowski-sum
    polytope exactly when the cell recedes along that facet's outward normal.
    """
    problems = []
    sum_poly = sum_polytope(cx.n, term_maps)
    ineqs, _ = sum_poly.hrep()
    facets = [(normal, face_in_direction(sum_poly, normal))
              for normal, _ in ineqs]
    origin = (0,) * cx.n
    for cell in cx.cells:
        dual = cell_dual(cell)
        choices = [fc.dual_points or (origin,) for fc in cell.profile]
        sums = [tuple(map(sum, zip(origin, *pick)))
                for pick in itertools.product(*choices)]
        if not equal_as_sets(convex_hull(sums), dual):
            problems.append((cell.id, "dual is not the hull of the dual point sums"))
        if cell.dim + dual.dim != cx.n:
            problems.append((cell.id, "dim cell + dim dual != n"))
        cell_dirs = _direction_span(cell.closure)
        dual_dirs = _direction_span(dual)
        if any(vdot(u, v) != 0 for u in cell_dirs for v in dual_dirs):
            problems.append((cell.id, "cell and dual spans not orthogonal"))
        rec = cell.closure.recession_cone()
        for normal, facet in facets:
            on_facet = facet.contains_polyhedron(dual)
            recedes = rec.contains(normal)
            if on_facet != recedes:
                problems.append(
                    (cell.id, f"facet duality failed for normal {normal}"))
    return problems


def _direction_span(p):
    verts = p.vertices
    dirs = [vsub(v, verts[0]) for v in verts[1:]]
    dirs += [frac_vec(r) for r in p.rays]
    dirs += [frac_vec(l) for l in p.lineality]
    return [d for d in dirs if any(x != 0 for x in d)]


# ---------------------------------------------------------------------------
# the oracle's witnesses, re-checked against the definition
# ---------------------------------------------------------------------------

def in_virtual_preimage(terms, x):
    """Membership of x in the corner locus of max over terms; for terms
    extended by a level at the origin, in that level's virtual preimage."""
    return len(argmax_at(terms, frac_vec(x))) >= 2


def verify_witness(F, y, verdict, steps=3):
    """Re-check a positive oracle verdict directly against the definition:
    walk a few points along the witness half-line and confirm each lies in
    every virtual preimage, the corner locus of the component extended by
    its level."""
    if not verdict.member:
        return False
    extended = [with_level(terms, level)
                for terms, level in zip(F.term_maps(), frac_vec(y))]
    cx = decomposition(extended, F.n, bend_only=True)
    cell = cx.cells[verdict.cell_id]
    base = cell.closure.relative_interior_point()
    ray = frac_vec(verdict.ray)
    for t in range(steps):
        x = tuple(b + t * r for b, r in zip(base, ray))
        if not all(in_virtual_preimage(terms, x) for terms in extended):
            return False
    return any(r > 0 for r in ray)


# ---------------------------------------------------------------------------
# references for the engine's assembly, and the product closure
# ---------------------------------------------------------------------------

def _reference_affine_form(ctx, cell, i):
    exp = cell.profile[i].dual_points[0]
    return frac_vec(exp), ctx.restricted[i][exp]


def reference_staircase(ctx, analysis):
    """Closure of the coupled virtual image, lifted to R^2n and projected:
    {y : x in the cell, y_i = comp_i(x) on the non-bending origin members,
    y_i <= comp_i(x) on the bending ones}."""
    n = ctx.face.n
    cell = analysis.cell
    ineqs, eqs = [], []
    cineqs, ceqs = cell.closure.hrep()
    zero_y = (Fraction(0),) * n
    ineqs += [(tuple(a) + zero_y, b) for a, b in cineqs]
    eqs += [(tuple(a) + zero_y, b) for a, b in ceqs]
    for i in sorted(ctx.origin_members):
        normal, offset = _reference_affine_form(ctx, cell, i)
        row = [-c for c in normal] + [Fraction(0)] * n
        row[n + i] = Fraction(1)
        (ineqs if i in analysis.bending else eqs).append((tuple(row), offset))
    lifted = Polyhedron.from_hrep(2 * n, ineqs, eqs)
    rows = [tuple(int(j == n + i) for j in range(2 * n)) for i in range(n)]
    return lifted.affine_image(rows, [0] * n).dual_description()


def reference_product(ctx, analysis):
    """The per-coordinate product closure of a cell's contribution: each
    bending origin coordinate bounded by its supremum over the cell alone,
    the other origin coordinates confined to the cell's affine image, whose
    H-representation is embedded coordinate by coordinate.  It contains the
    engine's piece, and exceeds it where the suprema are not attained at one
    point of the cell, which happens from n = 3 on."""
    n = ctx.face.n
    cell = analysis.cell
    ineqs, eqs = [], []
    image_coords, rows, consts = [], [], []
    for i in sorted(ctx.origin_members):
        normal, offset = _reference_affine_form(ctx, cell, i)
        if i not in analysis.bending:
            image_coords.append(i)
            rows.append(normal)
            consts.append(offset)
            continue
        sup = supremum(cell.closure, normal)
        if sup is not None:
            ineqs.append((tuple(int(j == i) for j in range(n)), sup + offset))
    if image_coords:
        img_ineqs, img_eqs = cell.closure.affine_image(rows, consts).hrep()
        for block, out in ((img_ineqs, ineqs), (img_eqs, eqs)):
            for a, b in block:
                e = [Fraction(0)] * n
                for c, coeff in zip(image_coords, a):
                    e[c] = coeff
                out.append((tuple(e), b))
    return Polyhedron.from_hrep(n, ineqs, eqs).dual_description()


def product_contribution(ctx, analysis):
    """`cell_contribution` with the product closure for the assembly."""
    face = ctx.face
    if not (face.dicritical and face.pre_origin and analysis.contributing):
        return Polyhedron.empty(face.n)
    piece = reference_product(ctx, analysis)
    if piece.dim > face.n - 1:
        raise GenericityError(
            f"piece of dimension {piece.dim} from face {face.id}, "
            f"cell {analysis.cell.id}: input is not face-generic")
    return piece


def product_set(F):
    """The product closure of the whole set: `tnp_set` with the product
    closure of every contributing cell of the dicritical pre-origin faces."""
    pieces = []
    for face in enumerate_tuple_faces(delta0(F)):
        if not (face.dicritical and face.pre_origin):
            continue
        ctx = analyze_gamma(F, face)
        for cell in ctx.complex:
            piece = product_contribution(ctx, analyze_sigma(ctx, cell))
            if not piece.is_empty:
                pieces.append(TNPPiece(piece, face.id, cell.id))
    return TNPSet(F.n, pieces)


# ---------------------------------------------------------------------------
# the set as a tropical hypersurface: balancing, and its ends
# ---------------------------------------------------------------------------

def integer_nullspace(rows, ncols):
    """A basis of the integer vectors x with row . x = 0 for every row, one
    vector per free column of the `int_rref` of the rows."""
    red, pivots = int_rref([primitive(r) for r in rows])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(int(j == f)) for j in range(ncols)]
        for row, p in zip(red, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(primitive(v))
    return basis


def _det(rows):
    if not rows:
        return 1
    return sum((-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, x in enumerate(rows[0]) if x)


def _content(rows, n):
    """The gcd of the maximal minors of integer rows in Z^n: the index of
    their lattice in its saturation (1 for no rows)."""
    return reduce(gcd, (_det([[r[c] for c in cols] for r in rows])
                        for cols in itertools.combinations(range(n), len(rows))),
                  0)


def _crosses(p, a, b):
    """Does the hyperplane a . x = b cut the relative interior of p?"""
    vals = [vdot(a, v) - b for v in p.vertices]
    dirs = [vdot(a, r) for r in p.rays]
    dirs += [s * vdot(a, l) for l in p.lineality for s in (1, -1)]
    return (any(v > 0 for v in vals) or any(d > 0 for d in dirs)) \
        and (any(v < 0 for v in vals) or any(d < 0 for d in dirs))


def _refine(pieces):
    """The pieces cut by the facet hyperplanes and the affine hulls of all
    pieces: closed cells of one hyperplane arrangement, which meet face to
    face, so that a weight may change wherever a ridge of another piece
    lies; a cell of two overlapping pieces comes once."""
    cuts = {}
    for p in pieces:
        ineqs, eqs = p.hrep()
        for a, b in ineqs + eqs:
            lead = next(x for x in a if x)
            cuts[(a, b) if lead > 0 else (vscale(-1, a), -b)] = None
    atoms = list(pieces)
    for a, b in cuts:
        split = []
        for p in atoms:
            if not _crosses(p, a, b):
                split.append(p)
                continue
            ineqs, eqs = p.hrep()
            split.append(Polyhedron.from_hrep(p.n, ineqs + [(a, b)], eqs))
            split.append(Polyhedron.from_hrep(
                p.n, ineqs + [(vscale(-1, a), -b)], eqs))
        atoms = split
    return list({p.canonical_key(): p for p in atoms}.values())


def balanced_weights(pieces):
    """Positive integer weights that balance a union of (n-1)-dimensional
    polyhedra in R^n (Maclagan and Sturmfels, 2015, section 3.3), as
    (cell, weight) pairs over the cells of `_refine`; None when no positive
    weights balance.

    At each ridge r, a facet of some cells, balancing asks that the sum of
    w_A u_A over the cells A with facet r lie in the span of r, where u_A is
    the primitive lattice vector from r into A modulo that span.  The
    weights are the integer nullspace of those conditions, and a positive
    one exists exactly when the sum of the extreme rays of the nullspace's
    nonnegative cone, found by one double description, is positive.
    """
    n = pieces[0].n
    if any(p.dim != n - 1 for p in pieces):
        raise ValueError("balancing is defined for pure (n-1)-dimensional sets")
    atoms = _refine(pieces)
    ridges = {}
    for k, atom in enumerate(atoms):
        ineqs, eqs = atom.hrep()
        inner = atom.relative_interior_point()
        for row in ineqs:
            ridge = Polyhedron.from_hrep(n, ineqs, eqs + [row])
            entry = ridges.setdefault(ridge.canonical_key(), (ridge, []))
            entry[1].append((k, primitive(
                vsub(inner, ridge.relative_interior_point()))))
    rows = []
    for ridge, star in ridges.values():
        verts = ridge.vertices
        span = [primitive(vsub(v, verts[0])) for v in verts[1:]]
        span = int_rref(span + ridge.rays + ridge.lineality)[0]
        index = _content(span, n)
        for c in integer_nullspace(span, n):
            row = [Fraction(0)] * len(atoms)
            for k, d in star:
                row[k] += Fraction(vdot(c, d) * index, _content([d] + span, n))
            rows.append(row)
    basis = integer_nullspace(rows, len(atoms))
    if not basis:
        return None
    cone = Polyhedron.from_hrep(
        len(basis), [(tuple(-b[i] for b in basis), 0)
                     for i in range(len(atoms))])
    total = [sum(x) for x in zip((0,) * len(basis), *cone.rays)]
    weights = [vdot(total, [b[i] for b in basis]) for i in range(len(atoms))]
    if not all(w > 0 for w in weights):
        return None
    return list(zip(atoms, primitive(weights)))


def components(polytopes):
    """The connected components of a union of closed polyhedra, as lists of
    pieces: pairwise intersections joined by union-find."""
    parent = list(range(len(polytopes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(polytopes)), 2):
        if find(i) != find(j) \
                and not intersect(polytopes[i], polytopes[j]).is_empty:
            parent[find(i)] = find(j)
    groups = {}
    for i, p in enumerate(polytopes):
        groups.setdefault(find(i), []).append(p)
    return list(groups.values())


def reaches_infinity_nonnegatively(component):
    """Does some piece of the component hold a ray whose direction is
    nonnegative and nonzero?  Its recession cone then meets the
    nonnegative orthant outside the origin."""
    n = component[0].n
    orthant = Polyhedron.from_generators(
        n, [(0,) * n], [tuple(int(i == j) for j in range(n)) for i in range(n)])
    return any(intersect(p.recession_cone(), orthant).rays for p in component)


@pytest.fixture(scope="session")
def map2d():
    """Two plane curves whose non-properness set is known in closed form."""
    f1 = TropicalPolynomial(2, {(0, 1): 0, (0, 2): -5, (1, 2): -3,
                                (2, 1): 0, (4, 2): 0})
    f2 = TropicalPolynomial(2, {(0, 1): 0, (2, 1): -2, (3, 2): -2, (4, 2): -4})
    return TropicalMap([f1, f2])


@pytest.fixture(scope="session")
def map2d_target_terms():
    """Tropical polynomial whose corner locus the 2d set must equal."""
    return {(2, 0): Fraction(-8), (1, 0): Fraction(-4), (1, 1): Fraction(-4),
            (0, 1): Fraction(-2), (0, 2): Fraction(0)}


@pytest.fixture(scope="session")
def map3d():
    f1 = TropicalPolynomial(3, {(1, 1, 1): 0, (0, 1, 1): 0, (2, 2, 2): 0})
    f2 = TropicalPolynomial(3, {(1, 1, 0): 0, (1, 1, 2): 0, (0, 1, 2): -7,
                                (0, 2, 4): -3, (1, 2, 4): -2, (2, 2, 4): -5})
    f3 = TropicalPolynomial(3, {(1, 0, 0): -1, (1, 1, 0): 0, (1, 1, 1): 0,
                                (2, 1, 1): 0})
    return TropicalMap([f1, f2, f3])


@pytest.fixture(scope="session")
def map2d_small():
    """Degenerate-support pair used for virtual-preimage decompositions."""
    f1 = TropicalPolynomial(2, {(1, 0): -1, (2, 1): 2, (3, 2): -5})
    f2 = TropicalPolynomial(2, {(1, 1): 0, (2, 2): 0, (1, 2): 0})
    return TropicalMap([f1, f2])
