import os
from fractions import Fraction

import pytest

from tropnp.geom import Cone, primitive
from tropnp.tropical import TropicalMap, TropicalPolynomial

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
    return Cone(poly.n, [primitive(ineqs[i][0]) for i in active_facets],
                [primitive(a) for a, _ in eqs])


def restrict(p, face):
    """The terms of the tropical polynomial p whose exponents lie in face."""
    return {exp: c for exp, c in p.terms.items() if face.contains(exp)}


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
