import os
from fractions import Fraction
from functools import reduce

import pytest

from tropnp.engine import analyze_gamma
from tropnp.geom import HBuilder, Polyhedron, primitive
from tropnp.subdivision import decomposition
from tropnp.tropical import MINUS_INF, TropicalMap, TropicalPolynomial

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


# ---------------------------------------------------------------------------
# reference constructions that tests compare the program against
# ---------------------------------------------------------------------------

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
    """The all-face transversality gate: offending cells of the full
    decomposition and of the restricted decomposition of every tuple-face,
    each one built and checked."""
    offenders = []
    cx = decomposition(F.term_maps(), [MINUS_INF] * F.n, n=F.n)
    ok, bad = cx.is_transversal()
    if not ok:
        offenders.append({"face": None, "cells": bad})
    for face in faces:
        ok, bad = analyze_gamma(F, face).complex.is_transversal()
        if not ok:
            offenders.append({"face": face.id, "cells": bad})
    return offenders


def reference_arrangement(n, hyperplanes):
    """Sign-vector cells of the central arrangement, as (signs, closure)
    pairs: sign +1 is the closed side a . x >= 0, -1 is a . x <= 0 and 0 the
    hyperplane, so a cone comes once for every sign vector describing it."""
    cells = []

    def rec(i, builder, signs):
        if i == len(hyperplanes):
            poly = builder.to_polyhedron()
            if poly.is_empty:
                return
            cells.append((signs, poly))
            return
        a = hyperplanes[i]
        for s in (-1, 0, 1):
            b = builder.clone()
            b.add_homog((0,) + tuple(-x if s < 0 else x for x in a),
                        equality=s == 0)
            if b.is_empty:
                continue
            rec(i + 1, b, signs + (s,))

    rec(0, HBuilder(n), ())
    return cells


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
