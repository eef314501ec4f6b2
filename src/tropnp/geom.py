"""Exact rational convex polyhedra via the double description method.

Everything is exact and decided without tolerances.  Ambient dimensions
stay small (the engine caps them at DIM_CAP), so the incremental double
description algorithm with the combinatorial adjacency test is entirely
adequate.

Conventions
-----------
* A half-space is `normal . x <= offset`, an equality `normal . x == offset`.
* A polyhedron in R^n is homogenized to a cone in R^(n+1) with leading
  coordinate x0 >= 0; generators with x0 > 0 are points, with x0 = 0 rays.
* Internal data is homogenized and integer: a point p is the primitive
  vector (d, d p) with d > 0, rays and lineality directions are primitive
  integer tuples, and a constraint `normal . x <= offset` (or `==`) is the
  primitive row h = (offset, -normal) with h . (1, x) >= 0 (or == 0).  Ranks,
  the lineality basis and reductions modulo it come from one fraction-free
  integer elimination (`int_rref`).  Fractions are built only by the public
  accessors: `vertices`, `hrep()`, `canonical_key()`,
  `relative_interior_point()` and `support_value()`.
* Canonical form: constraint rows are primitive (equalities oriented so the
  leading nonzero normal entry is positive), the lineality basis is the
  primitive reduced row echelon form with positive pivots, points and rays
  are reduced modulo it (zero in its pivot columns), rays are primitive,
  and all lists are sorted: rays and constraints lexicographically by their
  public form, points by the rational points they stand for.  Equal sets
  get equal canonical forms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import and_, mul
from typing import Iterable, Optional, Sequence

#: Default cap on the ambient dimension; double description is exponential
#: in general, so the engine refuses larger inputs unless reconfigured.
DIM_CAP = 4

Vec = tuple  # tuple of Fraction, public vector type
IVec = tuple  # tuple of int, internal reduced vector type


class GeometryError(ValueError):
    """Raised on contract violations (dimension mismatch, empty input...)."""


# ---------------------------------------------------------------------------
# small exact linear algebra helpers
# ---------------------------------------------------------------------------

def frac_vec(v) -> Vec:
    """Coerce a sequence of numbers/strings to a tuple of Fractions."""
    return tuple(Fraction(x) for x in v)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, v: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * a for a in v)


def vdot(u, v):
    return sum(map(mul, u, v))


def is_zero_vec(v) -> bool:
    return all(a == 0 for a in v)


def _ireduce(v: Sequence[int]) -> IVec:
    """gcd-reduce an integer vector, preserving orientation."""
    g = 0
    for x in v:
        g = gcd(g, x if x >= 0 else -x)
        if g == 1:
            return tuple(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _scaled_ints(v: Iterable):
    """(s, w) with integers w = s v and s > 0 the lcm of v's denominators."""
    v = tuple(v)
    if all(type(x) is int for x in v):
        return 1, v
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    s = 1
    for x in v:
        s = s * x.denominator // gcd(s, x.denominator)
    return s, tuple(x.numerator * (s // x.denominator) for x in v)


def primitive(v: Iterable) -> IVec:
    """Scale a rational vector by a positive rational to a primitive integer one."""
    return _ireduce(_scaled_ints(v)[1])


def _eliminate(v: IVec, row: IVec, c: int) -> IVec:
    """A positive multiple of v minus a multiple of row, zero in column c
    (row[c] > 0)."""
    a, p = v[c], row[c]
    g = gcd(a, p)
    a, p = a // g, p // g
    return tuple([p * x - a * y for x, y in zip(v, row)])


def _echelon(rows: Sequence[IVec]):
    """Fraction-free row echelon form of integer rows: (rows, pivot columns).

    Each returned row is primitive with a positive pivot and zeros below the
    pivots of the rows above it; their number is the rank.
    """
    mat = [r for r in rows if any(r)]
    out, pivots = [], []
    c = 0
    while mat:
        for k, p in enumerate(mat):
            if p[c]:
                break
        else:
            c += 1
            continue
        del mat[k]
        if p[c] < 0:
            p = tuple([-x for x in p])
        p = _ireduce(p)
        mat = [r if not r[c] else _eliminate(r, p, c) for r in mat]
        mat = [r for r in mat if any(r)]
        out.append(p)
        pivots.append(c)
        c += 1
    return out, pivots


def int_rref(rows: Sequence[IVec]):
    """Reduced row echelon form of integer rows, fraction-free.

    Returns (rows, pivot columns); each row is the primitive positive
    multiple of the corresponding row of the rational RREF, so it has a
    positive pivot and zeros in every other pivot column.  The RREF of a
    row space is unique, hence so is this basis.
    """
    out, pivots = _echelon(rows)
    for k in range(len(out) - 1, 0, -1):
        row, c = out[k], pivots[k]
        for j in range(k):
            if out[j][c]:
                out[j] = _eliminate(out[j], row, c)
    return [_ireduce(r) for r in out], pivots


def reduce_mod(v: IVec, rows: Sequence[IVec], pivots: Sequence[int]) -> IVec:
    """The coset representative of v modulo the span of `int_rref` rows that
    is zero in their pivot columns, scaled by a positive integer (so a
    homogenized point keeps its positive x0)."""
    for row, c in zip(rows, pivots):
        if v[c]:
            v = _eliminate(v, row, c)
    return v


def matrix_rank(rows) -> int:
    """Rank of a list of rational or integer vectors."""
    return len(_echelon([primitive(r) for r in rows])[0])


def mask_closure(seeds: Iterable[int], masks: Sequence[int]) -> set:
    """Every nonzero AND of a seed with any number of `masks`, the nonzero
    seeds included: with the facet incidence masks of a polyhedron as both,
    the generator masks of its faces."""
    found = set(seeds) - {0}
    frontier = found
    while frontier:
        frontier = {s & m for s in frontier for m in masks} - found - {0}
        found |= frontier
    return found


def _dehomog(p: IVec) -> Vec:
    """The rational point of a homogenized point (d, d x)."""
    d = p[0]
    if d == 1:
        return tuple(Fraction(x) for x in p[1:])
    return tuple(Fraction(x, d) for x in p[1:])


def _key_point(p: IVec) -> tuple:
    """The rational point of (d, d x), integral coordinates as ints: it
    compares and hashes like the tuple of Fractions."""
    d = p[0]
    if d == 1:
        return p[1:]
    return tuple(Fraction(x, d) if x % d else x // d for x in p[1:])


def _public_row(h: IVec):
    """(normal, offset) of a homogenized constraint row (offset, -normal)."""
    return tuple(-x for x in h[1:]), Fraction(h[0])


def _row_order(h: IVec):
    """Sort key of a constraint row: its public (normal, offset) order."""
    return tuple(-x for x in h[1:]), h[0]


# ---------------------------------------------------------------------------
# double description on cones, incremental, pure integers
# ---------------------------------------------------------------------------

class _DD:
    """Incremental double description of a cone {y : C y >= 0 / = 0} in R^dim.

    Maintains a lineality basis plus extreme rays of the pointed quotient,
    with per-ray bitmasks of the constraints satisfied with equality.
    """

    __slots__ = ("dim", "lin", "rays", "masks", "ncons")

    def __init__(self, dim: int):
        self.dim = dim
        self.lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
        self.rays: list[IVec] = []
        self.masks: list[int] = []
        self.ncons = 0

    def clone(self) -> "_DD":
        other = _DD.__new__(_DD)
        other.dim = self.dim
        other.lin = list(self.lin)
        other.rays = list(self.rays)
        other.masks = list(self.masks)
        other.ncons = self.ncons
        return other

    def _adjacent(self, i: int, j: int) -> bool:
        common = self.masks[i] & self.masks[j]
        for k, m in enumerate(self.masks):
            if k != i and k != j and (m & common) == common:
                return False
        return True

    def add(self, a: IVec, equality: bool = False) -> None:
        bit = 1 << self.ncons
        prev_full = bit - 1
        self.ncons += 1

        # Pivot on the lineality space if it is not contained in {a . y = 0}.
        piv = next((i for i, l in enumerate(self.lin) if sum(map(mul, a, l))), None)
        if piv is not None:
            l0 = self.lin.pop(piv)
            d0 = sum(map(mul, a, l0))
            if d0 < 0:
                l0 = tuple(-x for x in l0)
                d0 = -d0

            def project(v):
                dv = sum(map(mul, a, v))
                return _ireduce(tuple(d0 * x - dv * y for x, y in zip(v, l0)))

            self.lin = [project(l) for l in self.lin]
            new_rays, new_masks = [], []
            for r, m in zip(self.rays, self.masks):
                r2 = project(r)
                if any(r2):
                    new_rays.append(r2)
                    new_masks.append(m | bit)
            if not equality:
                # l0 itself survives on the feasible side, active on all
                # previously processed constraints (it was lineality).
                new_rays.append(l0)
                new_masks.append(prev_full)
            self.rays, self.masks = new_rays, new_masks
            return

    # Lineality already inside the hyperplane: classify rays.
        pos, zero, neg = [], [], []
        for i, r in enumerate(self.rays):
            d = sum(map(mul, a, r))
            if d > 0:
                pos.append((i, d))
            elif d == 0:
                zero.append(i)
            else:
                neg.append((i, d))

        if not neg and not equality:
            for i in zero:
                self.masks[i] |= bit
            return
        if not pos and not neg:
            # constraint is identically zero on the cone
            for i in zero:
                self.masks[i] |= bit
            return

        combos = {}
        for (i, di), (j, dj) in itertools.product(pos, neg):
            if not self._adjacent(i, j):
                continue
            r = _ireduce(tuple(di * y - dj * x for x, y in zip(self.rays[i], self.rays[j])))
            if any(r) and r not in combos:
                combos[r] = (self.masks[i] & self.masks[j]) | bit
        new_rays, new_masks = [], []
        for i in zero:
            new_rays.append(self.rays[i])
            new_masks.append(self.masks[i] | bit)
        if not equality:
            for i, _ in pos:
                new_rays.append(self.rays[i])
                new_masks.append(self.masks[i])
        for r, m in combos.items():
            new_rays.append(r)
            new_masks.append(m)
        self.rays, self.masks = new_rays, new_masks


def dd_generators(dim: int, equalities: Sequence[IVec], inequalities: Sequence[IVec]):
    """Generators (lineality, rays) of {y : eq . y = 0, ineq . y >= 0}."""
    dd = _DD(dim)
    for a in equalities:
        dd.add(a, equality=True)
    for a in inequalities:
        dd.add(a)
    return list(dd.lin), list(dd.rays)


def dd_constraints(dim: int, lineality: Sequence[IVec], rays: Sequence[IVec]):
    """Constraints (equalities, inequalities) of span(lineality) + cone(rays).

    Polar duality: the constraint normals of C are the generators of
    {a : a . r >= 0 for rays r, a . l = 0 for lineality l}.
    """
    lin_star, rays_star = dd_generators(dim, list(lineality), list(rays))
    return list(lin_star), list(rays_star)


# ---------------------------------------------------------------------------
# homogenized builder shared by Polyhedron and the refinement machinery
# ---------------------------------------------------------------------------

def _homog_ineq(normal: Vec, offset) -> IVec:
    """a . x <= b  ->  (b, -a) . (x0, x) >= 0, as a primitive integer vector."""
    h = primitive((offset,) + tuple(normal))
    return (h[0],) + tuple(-x for x in h[1:])


def _homog_point(p: Vec) -> IVec:
    """The primitive homogenized point (d, d p), d > 0."""
    return primitive((1,) + tuple(p))


class HBuilder:
    """Incrementally built polyhedron {x : constraints}, homogenized in R^(n+1).

    Used by the cell-refinement search: clone, add constraints, prune on
    emptiness, and convert survivors to Polyhedron values.
    """

    __slots__ = ("n", "_dd")

    def __init__(self, n: int, _dd: Optional[_DD] = None):
        self.n = n
        if _dd is None:
            self._dd = _DD(n + 1)
            self._dd.add(tuple([1] + [0] * n))  # x0 >= 0
        else:
            self._dd = _dd

    def clone(self) -> "HBuilder":
        return HBuilder(self.n, self._dd.clone())

    def add_homog(self, hvec: IVec, equality: bool = False) -> None:
        self._dd.add(hvec, equality=equality)

    @property
    def is_empty(self) -> bool:
        return not any(r[0] > 0 for r in self._dd.rays)

    @property
    def ncons(self) -> int:
        """Constraints added so far, x0 >= 0 included; the k-th owns bit k."""
        return self._dd.ncons

    @property
    def tight_mask(self) -> int:
        """Bits of the constraints tight on the whole (nonempty) polyhedron.

        Lineality lies in every constraint's hyperplane, so these are the
        constraints active on every extreme ray, x0 = 0 rays included.
        """
        return reduce(and_, self._dd.masks)

    def to_polyhedron(self) -> "Polyhedron":
        return Polyhedron._from_homog_generators(self.n, self._dd.lin, self._dd.rays)


# ---------------------------------------------------------------------------
# Polyhedron
# ---------------------------------------------------------------------------

class Polyhedron:
    """An exact rational convex polyhedron with both descriptions on demand.

    Immutable once constructed; the two representations are derived lazily
    from one another through the double description method and cached in
    canonical form, as homogenized integer data (see the module doc).
    """

    __slots__ = ("n", "_hin", "_heq", "_hgiven", "_points", "_rays", "_lins",
                 "_empty", "_dim", "_faces", "_vreduced")

    def __init__(self):
        raise TypeError("use Polyhedron.from_hrep / from_generators / empty")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _new(n: int) -> "Polyhedron":
        self = object.__new__(Polyhedron)
        self.n = n
        self._hin = None      # homogenized inequality rows
        self._heq = None      # homogenized equality rows
        self._hgiven = False  # _hin/_heq are from_hrep's rows, not canonical
        self._points = None   # homogenized points (d, d p), sorted by p
        self._rays = None
        self._lins = None     # int_rref basis of the lineality space
        self._empty = None
        self._dim = None
        self._faces = None
        self._vreduced = False
        return self

    @classmethod
    def from_hrep(cls, n: int, inequalities=(), equalities=()) -> "Polyhedron":
        """Build from half-spaces (normal, offset) and equalities (normal, offset)."""
        self = cls._new(n)
        rows = ([], [])
        for pairs, out in ((inequalities, rows[0]), (equalities, rows[1])):
            for normal, offset in pairs:
                normal = tuple(normal)
                if len(normal) != n:
                    raise GeometryError(f"constraint dimension {len(normal)} != {n}")
                out.append(_homog_ineq(normal, offset))
        self._hin, self._heq = rows
        self._hgiven = True
        return self

    @classmethod
    def from_generators(cls, n: int, points=(), rays=(), lineality=()) -> "Polyhedron":
        """Build conv(points) + cone(rays) + span(lineality); empty if no points."""
        points = [tuple(p) for p in points]
        for p in points:
            if len(p) != n:
                raise GeometryError(f"point dimension {len(p)} != {n}")
        if not points:
            return cls.empty(n)
        return cls._from_vdata(n, [_homog_point(p) for p in points],
                               [primitive(r) for r in rays if any(r)],
                               [primitive(l) for l in lineality if any(l)])

    @classmethod
    def empty(cls, n: int) -> "Polyhedron":
        self = cls._new(n)
        self._empty = True
        self._points, self._rays, self._lins = [], [], []
        self._hin = [(-1,) + (0,) * n]
        self._heq = []
        self._dim = -1
        self._vreduced = True
        return self

    @classmethod
    def whole_space(cls, n: int) -> "Polyhedron":
        return cls.from_hrep(n, [], [])

    @classmethod
    def point(cls, p) -> "Polyhedron":
        p = tuple(p)
        return cls.from_generators(len(p), [p])

    @classmethod
    def _from_vdata(cls, n, points, rays, lins) -> "Polyhedron":
        """From nonempty homogenized points, integer rays and lineality."""
        self = cls._new(n)
        self._empty = False
        self._set_vrep(points, rays, lins)
        return self

    @classmethod
    def _from_homog_generators(cls, n, lin, rays) -> "Polyhedron":
        """From the lineality and extreme rays of a homogenization cone."""
        self = cls._new(n)
        if not self._set_homog_generators(lin, rays):
            return cls.empty(n)
        return self

    def _sub(self, points, rays) -> "Polyhedron":
        """The polyhedron spanned by extreme homogenized points, some of this
        one's reduced rays and its lineality, e.g. a face or the recession
        cone; sublists of the reduced lists keep the canonical order."""
        face = Polyhedron._new(self.n)
        face._empty = False
        face._points, face._rays, face._lins = points, rays, self._lins
        face._vreduced = True  # extreme generators of P on a face are its own
        return face

    # -- representation plumbing -------------------------------------------

    def _set_homog_generators(self, lin, rays) -> bool:
        """V data from the generators of the homogenization cone, as the
        double description produced them; False when there is no point."""
        points = [r for r in rays if r[0] > 0]
        if not points:
            return False
        lins = []
        for l in lin:
            if l[0] != 0:
                raise GeometryError("homogenization lineality with nonzero x0")
            if any(l[1:]):
                lins.append(l[1:])
        self._empty = False
        self._set_vrep(points, [r[1:] for r in rays if r[0] == 0 and any(r[1:])],
                       lins)
        self._vreduced = True  # double description output is already extreme
        self._dim = self._generator_dim()
        return True

    def _generator_dim(self) -> int:
        """Rank of the homogenized generators, less one.  Points and rays are
        zero in the pivot columns of the lineality basis, which therefore
        adds its own length to their rank."""
        gens = self._points + [(0,) + r for r in self._rays]
        return len(self._lins) + len(_echelon(gens)[0]) - 1

    def _set_vrep(self, points, rays, lins) -> None:
        lins, pivots = int_rref(lins)
        if lins:
            hlins = [(0,) + l for l in lins]
            hpivots = [c + 1 for c in pivots]
            points = [_ireduce(reduce_mod(p, hlins, hpivots)) for p in points]
            rays = [_ireduce(reduce_mod(r, lins, pivots)) for r in rays]
            rays = [r for r in rays if any(r)]
        self._points = sorted(set(points), key=_key_point)
        self._rays = sorted(set(rays))
        self._lins = lins

    def _ensure_vrep(self) -> None:
        if self._points is not None:
            return
        self._vrep_from_hrep()

    def _vrep_from_hrep(self) -> None:
        ineqs = self._hin + [tuple([1] + [0] * self.n)]  # x0 >= 0
        lin, rays = dd_generators(self.n + 1, self._heq, ineqs)
        if not self._set_homog_generators(lin, rays):
            self._empty = True
            self._points, self._rays, self._lins = [], [], []
            self._dim = -1
            self._vreduced = True

    def _ensure_reduced_vrep(self) -> None:
        """Drop non-extreme generators by round-tripping through the H-rep."""
        self._ensure_vrep()
        if self._vreduced or self._empty:
            return
        self._ensure_hrep()
        self._vrep_from_hrep()

    def _ensure_hrep(self) -> None:
        if self._hin is not None:
            return
        gens = self._points + [(0,) + r for r in self._rays]
        glin = [(0,) + l for l in self._lins]
        lin_star, rays_star = dd_constraints(self.n + 1, glin, gens)
        # rows with a zero normal are the x0 >= 0 facet or trivial
        hin = {c for c in rays_star if any(c[1:])}
        heq = set()
        for c in lin_star:
            if any(c[1:]):
                lead = next(x for x in c[1:] if x)
                heq.add(c if lead < 0 else tuple(-x for x in c))
        self._hin = sorted(hin, key=_row_order)
        self._heq = sorted(heq, key=_row_order)

    # -- basic queries -------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        if self._empty is None:
            self._ensure_vrep()
        return self._empty

    @property
    def vertices(self) -> list:
        """Point generators; the actual vertices whenever the polyhedron is pointed."""
        self._ensure_reduced_vrep()
        return [_dehomog(p) for p in self._points]

    @property
    def rays(self) -> list:
        self._ensure_reduced_vrep()
        return list(self._rays)

    @property
    def lineality(self) -> list:
        self._ensure_reduced_vrep()
        return list(self._lins)

    def hrep(self):
        """Canonical (inequalities, equalities), both as (normal, offset) pairs.

        A polyhedron built by `from_hrep` returns the constraints it was
        given, scaled to primitive integer rows and in the given order, until
        `dual_description` replaces them by the canonical ones.
        """
        self._ensure_hrep()
        return ([_public_row(h) for h in self._hin],
                [_public_row(h) for h in self._heq])

    def dual_description(self) -> "Polyhedron":
        """Populate and canonicalize both representations; returns self.

        The constraints given to `from_hrep` are dropped once the generators
        are known, and the canonical ones are rebuilt from those.
        """
        if not self.is_empty:
            self._ensure_reduced_vrep()
            if self._hgiven:
                self._hin = self._heq = None
                self._hgiven = False
            self._ensure_hrep()
        return self

    @property
    def dim(self) -> int:
        """Affine dimension; -1 for the empty polyhedron."""
        if self._dim is None:
            self._dim = -1 if self.is_empty else self._generator_dim()
        return self._dim

    def _satisfied_by(self, g: IVec) -> bool:
        """Does the homogenized point (d, d p) or ray (0, r) satisfy every
        constraint row?"""
        return (all(vdot(h, g) >= 0 for h in self._hin)
                and all(vdot(h, g) == 0 for h in self._heq))

    def contains(self, x) -> bool:
        x = tuple(x)
        if len(x) != self.n:
            raise GeometryError("point dimension mismatch")
        if self.is_empty:
            return False
        self._ensure_hrep()
        return self._satisfied_by(_homog_point(x))

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        """Exact set containment other <= self, via generators against H-rep."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        self._ensure_hrep()
        other._ensure_reduced_vrep()
        if not all(self._satisfied_by(p) for p in other._points):
            return False
        if not all(self._satisfied_by((0,) + r) for r in other._rays):
            return False
        rows = self._hin + self._heq
        return all(vdot(h[1:], l) == 0 for l in other._lins for h in rows)

    def equal_as_sets(self, other: "Polyhedron") -> bool:
        return self.contains_polyhedron(other) and other.contains_polyhedron(self)

    def relative_interior_point(self) -> Vec:
        """The vertex barycenter pushed into the relative interior by the rays."""
        if self.is_empty:
            raise GeometryError("empty polyhedron has no relative interior point")
        self._ensure_vrep()
        den = 1
        for p in self._points:
            den = den * p[0] // gcd(den, p[0])
        num = [0] * self.n
        for p in self._points:
            s = den // p[0]
            num = [a + s * x for a, x in zip(num, p[1:])]
        k = len(self._points)
        for r in self._rays:
            num = [a + k * den * x for a, x in zip(num, r)]
        return tuple(Fraction(a, k * den) for a in num)

    # -- operations ----------------------------------------------------------

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        if self.n != other.n:
            raise GeometryError("ambient dimension mismatch")
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.n)
        i1, e1 = self.hrep()
        i2, e2 = other.hrep()
        return Polyhedron.from_hrep(self.n, i1 + i2, e1 + e2)

    def minkowski_sum(self, other: "Polyhedron") -> "Polyhedron":
        if self.n != other.n:
            raise GeometryError("ambient dimension mismatch")
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.n)
        self._ensure_reduced_vrep()
        other._ensure_reduced_vrep()
        points = [_ireduce((p[0] * q[0],) + tuple(q[0] * x + p[0] * y
                                                   for x, y in zip(p[1:], q[1:])))
                  for p in self._points for q in other._points]
        return Polyhedron._from_vdata(self.n, points, self._rays + other._rays,
                                      self._lins + other._lins)

    def translate(self, v) -> "Polyhedron":
        s, w = _scaled_ints(v)
        if self.is_empty:
            return self
        self._ensure_reduced_vrep()
        points = [_ireduce((s * p[0],) + tuple(s * x + p[0] * y
                                                for x, y in zip(p[1:], w)))
                  for p in self._points]
        return Polyhedron._from_vdata(self.n, points, self._rays, self._lins)

    def _argmax(self, a: IVec):
        """(the reduced points maximising the integer direction a, numerator
        and x0 of the maximum); None when a is unbounded above."""
        self._ensure_reduced_vrep()
        if any(vdot(a, r) > 0 for r in self._rays):
            return None
        if any(vdot(a, l) != 0 for l in self._lins):
            return None
        values = [(vdot(a, p[1:]), p[0]) for p in self._points]
        top, den = values[0]
        for v, d in values[1:]:
            if v * den > top * d:
                top, den = v, d
        points = [p for p, (v, d) in zip(self._points, values) if v * den == top * d]
        return points, top, den

    def face_in_direction(self, alpha) -> Optional["Polyhedron"]:
        """The argmax face of <alpha, .>; None when unbounded in that direction."""
        _, a = _scaled_ints(alpha)
        if self.is_empty:
            raise GeometryError("empty polyhedron has no faces")
        if not any(a):
            raise GeometryError("direction must be nonzero")
        found = self._argmax(a)
        if found is None:
            return None
        return self._sub(found[0], [r for r in self._rays if vdot(a, r) == 0])

    def support_value(self, alpha):
        """sup of <alpha, .>; None when unbounded above."""
        s, a = _scaled_ints(alpha)
        if self.is_empty:
            raise GeometryError("empty polyhedron")
        found = self._argmax(a)
        if found is None:
            return None
        _, top, den = found
        return Fraction(top, s * den)

    def recession_cone(self) -> "Polyhedron":
        """The recession cone, a polyhedron with the origin as its point."""
        if self.is_empty:
            raise GeometryError("empty polyhedron has no recession cone")
        self._ensure_reduced_vrep()
        # the recession cone is the x0 = 0 face of the homogenization, so
        # reduced polyhedron rays are its extreme rays already
        return self._sub([(1,) + (0,) * self.n], self._rays)

    def affine_image(self, rows, consts) -> "Polyhedron":
        """Image under x -> (row_i . x + const_i); exact on all generators."""
        if self.is_empty:
            return Polyhedron.empty(len(rows))
        # one common denominator s: the map is (1/s) (C + R x), C and R integer
        s, flat = _scaled_ints(list(consts) + [x for r in rows for x in r])
        m = len(rows)
        cs = flat[:m]
        rs = [flat[m + i * self.n:m + (i + 1) * self.n] for i in range(m)]
        self._ensure_reduced_vrep()
        points = [_ireduce((s * p[0],) + tuple(vdot(r, p[1:]) + c * p[0]
                                                for r, c in zip(rs, cs)))
                  for p in self._points]

        def image(dirs):
            out = [_ireduce(tuple(vdot(r, q) for r in rs)) for q in dirs]
            return [q for q in out if any(q)]
        return Polyhedron._from_vdata(m, points, image(self._rays), image(self._lins))

    def project(self, coords: Sequence[int]) -> "Polyhedron":
        """Coordinate projection, exact via generators."""
        rows = [tuple(1 if j == c else 0 for j in range(self.n)) for c in coords]
        return self.affine_image(rows, [0] * len(coords))

    # -- faces ---------------------------------------------------------------

    def proper_faces(self) -> list["Polyhedron"]:
        """All nonempty faces F with F != P, including the facets and vertices."""
        return [f for f, _ in self.proper_faces_with_active()]

    def _facet_masks(self):
        """(reduced generators, points then (0, ray), and per canonical
        inequality row the bitmask of the generators on its hyperplane)."""
        self._ensure_reduced_vrep()
        self._ensure_hrep()
        gens = self._points + [(0,) + r for r in self._rays]
        return gens, [sum(1 << k for k, g in enumerate(gens) if vdot(h, g) == 0)
                      for h in self._hin]

    def proper_faces_with_active(self):
        """Proper faces paired with the indices of the facets containing them."""
        if self.is_empty:
            return []
        if self._faces is not None:
            return list(self._faces)
        gens, masks = self._facet_masks()
        npts = len(self._points)
        point_bits = (1 << npts) - 1
        faces = []
        # the faces are the ANDs of facet masks that hold a point
        for mask in mask_closure(masks, masks):
            if not mask & point_bits:
                continue
            idx = [k for k in range(len(gens)) if mask >> k & 1]
            face = self._sub([gens[k] for k in idx if k < npts],
                             [gens[k][1:] for k in idx if k >= npts])
            faces.append((face, tuple(i for i, m in enumerate(masks)
                                      if mask & m == mask)))
        faces.sort(key=lambda fa: (fa[0].dim, fa[0].canonical_key()))
        self._faces = faces
        return list(faces)

    def normal_fan(self) -> list:
        """(vertex mask, closed outer normal cone) of every face of a
        polytope, bit k standing for `vertices[k]`; the improper face comes
        last when it has a nontrivial normal cone (the polytope is not
        full-dimensional).

        The faces are the ANDs of the facet incidence masks.  A face's
        normal cone is spanned by the normals of the facets containing it
        plus the span of the equality normals; those facet normals are its
        extreme rays modulo that span, so each cone is built from its
        generators in canonical form, without a dual description.
        """
        if self.is_empty:
            return []
        gens, masks = self._facet_masks()
        if self._rays or self._lins:
            raise GeometryError("the normal fan is taken of a polytope")
        lins, pivots = int_rref([h[1:] for h in self._heq])
        normals = [_ireduce(reduce_mod(tuple(-x for x in h[1:]), lins, pivots))
                   for h in self._hin]
        origin = [(1,) + (0,) * self.n]
        full = (1 << len(gens)) - 1
        fan = []
        for mask in sorted(mask_closure(masks, masks)) + ([full] if lins else []):
            cone = Polyhedron._new(self.n)
            cone._empty = False
            cone._points, cone._lins, cone._vreduced = origin, lins, True
            cone._rays = sorted(r for r, m in zip(normals, masks)
                                if mask & m == mask)
            fan.append((mask, cone))
        return fan

    # -- canonical identity ----------------------------------------------------

    def canonical_key(self):
        """Vertices, rays and lineality in canonical form: equal exactly for
        equal sets, and ordered like the tuples of rational vertices.  Vertex
        coordinates are ints where integral, which saves building a Fraction
        per integer coordinate."""
        if self.is_empty:
            return ("empty", self.n)
        self._ensure_reduced_vrep()
        return (tuple(map(_key_point, self._points)), tuple(self._rays),
                tuple(self._lins))

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.n == other.n \
            and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash((self.n, self.canonical_key()))

    def __repr__(self):
        if self.is_empty:
            return f"Polyhedron(empty, n={self.n})"
        return (f"Polyhedron(n={self.n}, dim={self.dim}, "
                f"vertices={len(self.vertices)}, rays={len(self.rays)}, "
                f"lineality={len(self.lineality)})")


def vneg_int(v):
    return tuple(-x for x in v)


def convex_hull(points: Sequence) -> Polyhedron:
    """Polytope spanned by the given rational points, with irredundant data."""
    pts = [tuple(p) for p in points]
    if not pts:
        raise GeometryError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise GeometryError("points of mixed dimension")
    return Polyhedron.from_generators(n, pts).dual_description()


def positive_coordinate_witness(p: Polyhedron) -> Optional[IVec]:
    """A primitive direction of p's recession cone with a positive
    coordinate, or None when that cone lies in the nonpositive orthant.

    The orthant is closed under nonnegative combinations, so scanning the
    generators decides it exactly: a ray with a positive entry, else the
    first lineality direction or its negative.
    """
    for r in p.rays:
        if any(x > 0 for x in r):
            return r
    lins = p.lineality
    if lins:
        return lins[0] if any(x > 0 for x in lins[0]) else vneg_int(lins[0])
    return None


def is_dicritical_cone(c: Polyhedron) -> bool:
    """True iff the cone is not contained in the nonpositive orthant."""
    return positive_coordinate_witness(c) is not None


# ---------------------------------------------------------------------------
# coverage of a polyhedron by a finite union of polyhedra
# ---------------------------------------------------------------------------

def strict_witness(n, ineqs, eqs, stricts) -> Optional[Vec]:
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
    for p in P._points:
        if p[-1] > 0:
            return _dehomog(p)[:-1]
    base = P._points[0]

    def shifted(v):
        d = base[0]
        return _dehomog((d,) + tuple(x + d * y for x, y in zip(base[1:], v)))[:-1]
    for r in P._rays:
        if r[-1] > 0:
            return shifted(r)
    for l in P._lins:
        if l[-1] > 0:
            return shifted(l)
        if l[-1] < 0:
            return shifted(vneg_int(l))
    return None


def _strict_region_nonempty(n, ineqs, eqs, stricts) -> bool:
    return strict_witness(n, ineqs, eqs, stricts) is not None


def covered_by_union(P: Polyhedron, pieces: Sequence[Polyhedron]) -> bool:
    """Exact decision of P <= union(pieces), all closed polyhedra."""
    if P.is_empty:
        return True
    ineqs, eqs = P.hrep()
    pieces = [q for q in pieces if not q.is_empty]
    return _covered(P.n, list(ineqs), list(eqs), [], pieces)


def _covered(n, ineqs, eqs, stricts, pieces) -> bool:
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


def union_equal(pieces_a: Sequence[Polyhedron], pieces_b: Sequence[Polyhedron]) -> bool:
    """Exact set equality of two finite unions of polyhedra."""
    return (all(covered_by_union(p, pieces_b) for p in pieces_a)
            and all(covered_by_union(q, pieces_a) for q in pieces_b))
