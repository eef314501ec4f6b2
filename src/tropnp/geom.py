"""Exact rational convex polyhedra via the double description method.

Everything is exact: public coordinates are `fractions.Fraction`, internal
generator and constraint vectors are gcd-reduced integer tuples, and all
predicates are decided without tolerances.  Ambient dimensions stay small
(the engine caps them at DIM_CAP), so the incremental double description
algorithm with the combinatorial adjacency test is entirely adequate.

Conventions
-----------
* A half-space is `normal . x <= offset`, an equality `normal . x == offset`.
* A polyhedron in R^n is homogenized to a cone in R^(n+1) with leading
  coordinate x0 >= 0; generators with x0 > 0 are points, with x0 = 0 rays.
* Canonical form: constraint vectors are primitive integers (equalities with
  positive leading nonzero entry), rays are primitive integers reduced modulo
  the lineality space, vertices are reduced modulo lineality, and all lists
  are sorted lexicographically.  Equal sets get equal canonical forms.
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
    return sum(a * b for a, b in zip(u, v))


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


def primitive(v: Iterable) -> IVec:
    """Scale a rational vector by a positive rational to a primitive integer one."""
    v = frac_vec(v)
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    return _ireduce(tuple(int(x * den) for x in v))


def _sign_canonical(v: IVec) -> IVec:
    """Flip sign so the leading nonzero entry is positive (for equalities)."""
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-a for a in v)
    return v


def _rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form over Q; returns (rows, pivot column indices)."""
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


def matrix_rank(rows) -> int:
    return len(_rref(rows)[0])


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
    return primitive((Fraction(offset),) + tuple(-Fraction(c) for c in normal))


def _homog_point(p: Vec) -> IVec:
    return primitive((Fraction(1),) + frac_vec(p))


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

    def add_ineq(self, normal, offset) -> None:
        self._dd.add(_homog_ineq(normal, offset))

    def add_eq(self, normal, offset) -> None:
        self._dd.add(_homog_ineq(normal, offset), equality=True)

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
    canonical form.
    """

    __slots__ = ("n", "_ineqs", "_eqs", "_points", "_rays", "_lins", "_empty",
                 "_dim", "_faces", "_vreduced")

    def __init__(self):
        raise TypeError("use Polyhedron.from_hrep / from_generators / empty")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _new(n: int) -> "Polyhedron":
        self = object.__new__(Polyhedron)
        self.n = n
        self._ineqs = None
        self._eqs = None
        self._points = None
        self._rays = None
        self._lins = None
        self._empty = None
        self._dim = None
        self._faces = None
        self._vreduced = False
        return self

    @classmethod
    def from_hrep(cls, n: int, inequalities=(), equalities=()) -> "Polyhedron":
        """Build from half-spaces (normal, offset) and equalities (normal, offset)."""
        self = cls._new(n)
        ineqs = []
        for normal, offset in inequalities:
            normal = frac_vec(normal)
            if len(normal) != n:
                raise GeometryError(f"constraint dimension {len(normal)} != {n}")
            ineqs.append((normal, Fraction(offset)))
        eqs = []
        for normal, offset in equalities:
            normal = frac_vec(normal)
            if len(normal) != n:
                raise GeometryError(f"constraint dimension {len(normal)} != {n}")
            eqs.append((normal, Fraction(offset)))
        self._ineqs = ineqs
        self._eqs = eqs
        return self

    @classmethod
    def from_generators(cls, n: int, points=(), rays=(), lineality=()) -> "Polyhedron":
        """Build conv(points) + cone(rays) + span(lineality); empty if no points."""
        points = [frac_vec(p) for p in points]
        for p in points:
            if len(p) != n:
                raise GeometryError(f"point dimension {len(p)} != {n}")
        if not points:
            return cls.empty(n)
        self = cls._new(n)
        self._empty = False
        self._set_vrep(points,
                       [primitive(r) for r in rays if not is_zero_vec(r)],
                       [primitive(l) for l in lineality if not is_zero_vec(l)])
        return self

    @classmethod
    def empty(cls, n: int) -> "Polyhedron":
        self = cls._new(n)
        self._empty = True
        self._points, self._rays, self._lins = [], [], []
        zero = tuple(Fraction(0) for _ in range(n))
        self._ineqs = [(zero, Fraction(-1))]
        self._eqs = []
        self._dim = -1
        self._vreduced = True
        return self

    @classmethod
    def whole_space(cls, n: int) -> "Polyhedron":
        return cls.from_hrep(n, [], [])

    @classmethod
    def point(cls, p) -> "Polyhedron":
        p = frac_vec(p)
        return cls.from_generators(len(p), [p])

    @classmethod
    def _from_homog_generators(cls, n, lin, rays) -> "Polyhedron":
        points, prays, plins = [], [], []
        for l in lin:
            if l[0] != 0:
                raise GeometryError("homogenization lineality with nonzero x0")
            if any(l[1:]):
                plins.append(l[1:])
        for r in rays:
            if r[0] > 0:
                points.append(tuple(Fraction(x, r[0]) for x in r[1:]))
            elif any(r[1:]):
                prays.append(_ireduce(r[1:]))
        if not points:
            return cls.empty(n)
        self = cls._new(n)
        self._empty = False
        self._set_vrep(points, prays, plins)
        self._vreduced = True  # double description output is already extreme
        return self

    # -- representation plumbing -------------------------------------------

    def _set_vrep(self, points, rays, lins) -> None:
        lins, pivots = _rref(lins) if lins else ([], [])
        lins = [primitive(l) for l in lins]

        def reduce_mod_lin(v):
            v = list(map(Fraction, v))
            for row, c in zip(lins, pivots):
                if v[c] != 0:
                    f = Fraction(v[c], row[c])
                    v = [x - f * y for x, y in zip(v, row)]
            return tuple(v)

        pts = sorted(set(reduce_mod_lin(p) for p in points))
        rys = set()
        for r in rays:
            r = reduce_mod_lin(r)
            if not is_zero_vec(r):
                rys.add(primitive(r))
        self._points = pts
        self._rays = sorted(rys)
        self._lins = lins

    def _ensure_vrep(self) -> None:
        if self._points is not None:
            return
        self._vrep_from_hrep()

    def _vrep_from_hrep(self) -> None:
        eqs = [_homog_ineq(a, b) for a, b in self._eqs]
        ineqs = [_homog_ineq(a, b) for a, b in self._ineqs]
        ineqs.append(tuple([1] + [0] * self.n))  # x0 >= 0
        lin, rays = dd_generators(self.n + 1, eqs, ineqs)
        if not any(r[0] > 0 for r in rays):
            self._empty = True
            self._points, self._rays, self._lins = [], [], []
            self._dim = -1
            self._vreduced = True
            return
        self._empty = False
        points, prays, plins = [], [], []
        for l in lin:
            if any(l[1:]):
                plins.append(l[1:])
        for r in rays:
            if r[0] > 0:
                points.append(tuple(Fraction(x, r[0]) for x in r[1:]))
            elif any(r[1:]):
                prays.append(_ireduce(r[1:]))
        self._set_vrep(points, prays, plins)
        self._vreduced = True

    def _ensure_reduced_vrep(self) -> None:
        """Drop non-extreme generators by round-tripping through the H-rep."""
        self._ensure_vrep()
        if self._vreduced or self._empty:
            return
        self._ensure_hrep()
        self._vrep_from_hrep()

    def _ensure_hrep(self) -> None:
        if self._ineqs is not None:
            return
        gens = [_homog_point(p) for p in self._points]
        gens += [(0,) + tuple(r) for r in self._rays]
        glin = [(0,) + tuple(l) for l in self._lins]
        lin_star, rays_star = dd_constraints(self.n + 1, glin, gens)
        ineqs, eqs = [], []
        for c in rays_star:
            normal = tuple(Fraction(-x) for x in c[1:])
            if is_zero_vec(normal):
                continue  # the x0 >= 0 facet or a trivial row
            ineqs.append((normal, Fraction(c[0])))
        for c in lin_star:
            normal = tuple(Fraction(x) for x in c[1:])
            if is_zero_vec(normal):
                continue
            eqs.append((normal, Fraction(-c[0])))
        self._ineqs = ineqs
        self._eqs = eqs
        self._canonicalize_hrep()

    def _canonicalize_hrep(self) -> None:
        ineqs = set()
        for a, b in self._ineqs:
            v = primitive(tuple(a) + (b,))
            ineqs.add((v[:-1], Fraction(v[-1])))
        eqs = set()
        for a, b in self._eqs:
            v = _sign_canonical(primitive(tuple(a) + (b,)))
            eqs.add((v[:-1], Fraction(v[-1])))
        self._ineqs = sorted(ineqs)
        self._eqs = sorted(eqs)

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
        return list(self._points)

    @property
    def rays(self) -> list:
        self._ensure_reduced_vrep()
        return list(self._rays)

    @property
    def lineality(self) -> list:
        self._ensure_reduced_vrep()
        return list(self._lins)

    def hrep(self):
        """Canonical (inequalities, equalities), both as (normal, offset) pairs."""
        if self.is_empty:
            return list(self._ineqs), list(self._eqs)
        self._ensure_hrep()
        return list(self._ineqs), list(self._eqs)

    def dual_description(self) -> "Polyhedron":
        """Populate and canonicalize both representations; returns self."""
        if not self.is_empty:
            self._ensure_hrep()
            self._ensure_reduced_vrep()
        return self

    @property
    def dim(self) -> int:
        """Affine dimension; -1 for the empty polyhedron."""
        if self._dim is None:
            if self.is_empty:
                self._dim = -1
            else:
                base = self._points[0]
                rows = [vsub(p, base) for p in self._points[1:]]
                rows += [frac_vec(r) for r in self._rays]
                rows += [frac_vec(l) for l in self._lins]
                self._dim = matrix_rank(rows) if rows else 0
        return self._dim

    def contains(self, x) -> bool:
        x = frac_vec(x)
        if len(x) != self.n:
            raise GeometryError("point dimension mismatch")
        if self.is_empty:
            return False
        ineqs, eqs = self.hrep()
        return (all(vdot(a, x) <= b for a, b in ineqs)
                and all(vdot(a, x) == b for a, b in eqs))

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        """Exact set containment other <= self, via generators against H-rep."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        ineqs, eqs = self.hrep()
        for p in other.vertices:
            if not (all(vdot(a, p) <= b for a, b in ineqs)
                    and all(vdot(a, p) == b for a, b in eqs)):
                return False
        for r in itertools.chain(other.rays, other.lineality, map(vneg_int, other.lineality)):
            if not (all(vdot(a, r) <= 0 for a, b in ineqs)
                    and all(vdot(a, r) == 0 for a, b in eqs)):
                return False
        return True

    def equal_as_sets(self, other: "Polyhedron") -> bool:
        return self.contains_polyhedron(other) and other.contains_polyhedron(self)

    def relative_interior_point(self) -> Vec:
        """The vertex barycenter pushed into the relative interior by the rays."""
        if self.is_empty:
            raise GeometryError("empty polyhedron has no relative interior point")
        self._ensure_vrep()
        k = Fraction(1, len(self._points))
        p = tuple(sum(pt[i] for pt in self._points) * k for i in range(self.n))
        for r in self._rays:
            p = vadd(p, frac_vec(r))
        return p

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
        points = [vadd(p, q) for p in self.vertices for q in other.vertices]
        return Polyhedron.from_generators(
            self.n, points, self.rays + other.rays, self.lineality + other.lineality)

    def translate(self, v) -> "Polyhedron":
        v = frac_vec(v)
        if self.is_empty:
            return self
        return Polyhedron.from_generators(
            self.n, [vadd(p, v) for p in self.vertices], self.rays, self.lineality)

    def face_in_direction(self, alpha) -> Optional["Polyhedron"]:
        """The argmax face of <alpha, .>; None when unbounded in that direction."""
        alpha = frac_vec(alpha)
        if self.is_empty:
            raise GeometryError("empty polyhedron has no faces")
        if is_zero_vec(alpha):
            raise GeometryError("direction must be nonzero")
        self._ensure_reduced_vrep()
        if any(vdot(alpha, r) > 0 for r in self._rays):
            return None
        if any(vdot(alpha, l) != 0 for l in self._lins):
            return None
        m = max(vdot(alpha, p) for p in self._points)
        points = [p for p in self._points if vdot(alpha, p) == m]
        rays = [r for r in self._rays if vdot(alpha, r) == 0]
        face = Polyhedron.from_generators(self.n, points, rays, self._lins)
        face._vreduced = True
        return face

    def support_value(self, alpha):
        """sup of <alpha, .>; None when unbounded above."""
        alpha = frac_vec(alpha)
        if self.is_empty:
            raise GeometryError("empty polyhedron")
        self._ensure_reduced_vrep()
        if any(vdot(alpha, r) > 0 for r in self._rays):
            return None
        if any(vdot(alpha, l) != 0 for l in self._lins):
            return None
        return max(vdot(alpha, p) for p in self._points)

    def recession_cone(self) -> "Cone":
        if self.is_empty:
            raise GeometryError("empty polyhedron has no recession cone")
        self._ensure_reduced_vrep()
        # the recession cone is the x0 = 0 face of the homogenization, so
        # reduced polyhedron rays are its extreme rays already
        return Cone(self.n, self._rays, self._lins, reduced=True)

    def affine_image(self, rows, consts) -> "Polyhedron":
        """Image under x -> (row_i . x + const_i); exact on all generators."""
        if self.is_empty:
            return Polyhedron.empty(len(rows))
        rows = [frac_vec(r) for r in rows]
        consts = frac_vec(consts)
        points = [tuple(vdot(r, p) + c for r, c in zip(rows, consts)) for p in self.vertices]
        rays = [tuple(vdot(r, q) for r in rows) for q in self.rays]
        lins = [tuple(vdot(r, l) for r in rows) for l in self.lineality]
        return Polyhedron.from_generators(len(rows), points, rays, lins)

    def project(self, coords: Sequence[int]) -> "Polyhedron":
        """Coordinate projection, exact via generators."""
        rows = [tuple(Fraction(1) if j == c else Fraction(0) for j in range(self.n))
                for c in coords]
        return self.affine_image(rows, [0] * len(coords))

    # -- faces ---------------------------------------------------------------

    def _generator_table(self):
        self._ensure_reduced_vrep()
        ineqs, _ = self.hrep()
        gens = [("p", p) for p in self._points] + [("r", frac_vec(r)) for r in self._rays]
        incidence = []
        for a, b in ineqs:
            active = frozenset(
                i for i, (kind, g) in enumerate(gens)
                if (vdot(a, g) == b if kind == "p" else vdot(a, g) == 0))
            incidence.append(active)
        return gens, ineqs, incidence

    def proper_faces(self) -> list["Polyhedron"]:
        """All nonempty faces F with F != P, including the facets and vertices."""
        return [f for f, _ in self.proper_faces_with_active()]

    def proper_faces_with_active(self):
        """Proper faces paired with the indices of the facets containing them."""
        if self.is_empty:
            return []
        if self._faces is not None:
            return list(self._faces)
        gens, ineqs, incidence = self._generator_table()
        all_gens = frozenset(range(len(gens)))
        seen = {}
        frontier = {all_gens}
        while frontier:
            new_frontier = set()
            for gset in frontier:
                for inc in incidence:
                    sub = gset & inc
                    if sub and sub != all_gens and sub not in seen:
                        seen[sub] = None
                        new_frontier.add(sub)
            frontier = new_frontier
        faces = []
        for gset in seen:
            # keep only generator sets that actually are faces: they must be
            # exactly the generators active on their supporting facet set
            facets = [i for i, inc in enumerate(incidence) if gset <= inc]
            exact = all_gens
            for i in facets:
                exact = exact & incidence[i]
            if exact != gset:
                continue
            pts = [g for k, (kind, g) in enumerate(gens) if k in gset and kind == "p"]
            rys = [g for k, (kind, g) in enumerate(gens) if k in gset and kind == "r"]
            if not pts:
                continue
            face = Polyhedron.from_generators(self.n, pts, rys, self._lins)
            # extreme generators of P lying on a face are that face's own
            # extreme generators, so the representation is already reduced
            face._vreduced = True
            faces.append((face, tuple(facets)))
        faces.sort(key=lambda fa: (fa[0].dim, fa[0].canonical_key()))
        self._faces = faces
        return list(faces)

    def normal_cone_of_face(self, active_facets: Sequence[int]) -> "Cone":
        """Outer normal cone spanned by the active facet normals (+ equalities)."""
        ineqs, eqs = self.hrep()
        rays = [primitive(ineqs[i][0]) for i in active_facets]
        lins = [primitive(a) for a, _ in eqs]
        return Cone(self.n, rays, lins)

    # -- canonical identity ----------------------------------------------------

    def canonical_key(self):
        if self.is_empty:
            return ("empty", self.n)
        self._ensure_reduced_vrep()
        return (tuple(self._points), tuple(self._rays), tuple(self._lins))

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
    pts = [frac_vec(p) for p in points]
    if not pts:
        raise GeometryError("convex hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise GeometryError("points of mixed dimension")
    return Polyhedron.from_generators(n, pts).dual_description()


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------

class Cone:
    """A rational polyhedral cone, stored by extreme generators.

    Construction reduces arbitrary generating sets to a canonical one
    (extreme rays modulo the lineality space, both in primitive integer
    form), so value equality is set equality.
    """

    __slots__ = ("n", "rays", "lineality", "_poly")

    def __init__(self, n: int, rays=(), lineality=(), reduced: bool = False):
        """`reduced=True` promises the rays are already extreme modulo the
        lineality span, skipping the polar round-trip."""
        self.n = n
        rays = [primitive(r) for r in rays if not is_zero_vec(r)]
        lins = [primitive(l) for l in lineality if not is_zero_vec(l)]
        if not reduced and (len(rays) > 1 or (rays and lins)):
            # round-trip through the polar to drop hidden lineality and
            # non-extreme rays
            lin_star, rays_star = dd_constraints(n, lins, rays)
            lins, rays = dd_generators(n, lin_star, rays_star)
        lins, pivots = _rref([frac_vec(l) for l in lins]) if lins else ([], [])
        lins = [primitive(l) for l in lins]

        def reduce_mod(v):
            v = list(map(Fraction, v))
            for row, c in zip(lins, pivots):
                if v[c] != 0:
                    f = Fraction(v[c], row[c])
                    v = [x - f * y for x, y in zip(v, row)]
            return tuple(v)

        rset = set()
        for r in rays:
            r = reduce_mod(r)
            if not is_zero_vec(r):
                rset.add(primitive(r))
        self.rays = tuple(sorted(rset))
        self.lineality = tuple(lins)
        self._poly = None

    @property
    def dim(self) -> int:
        rows = [frac_vec(r) for r in self.rays] + [frac_vec(l) for l in self.lineality]
        return matrix_rank(rows) if rows else 0

    @property
    def is_trivial(self) -> bool:
        return not self.rays and not self.lineality

    def as_polyhedron(self) -> Polyhedron:
        if self._poly is None:
            origin = tuple(Fraction(0) for _ in range(self.n))
            self._poly = Polyhedron.from_generators(
                self.n, [origin], self.rays, self.lineality)
        return self._poly

    def contains(self, v) -> bool:
        return self.as_polyhedron().contains(v)

    def intersect(self, other: "Cone") -> "Cone":
        p = self.as_polyhedron().intersect(other.as_polyhedron())
        return Cone(self.n, p.rays, p.lineality)

    def has_positive_coordinate(self) -> bool:
        """Does the cone contain a vector with a strictly positive coordinate?

        Equivalent to not being contained in the nonpositive orthant, and the
        orthant is closed under nonnegative combinations, so scanning the
        generators decides it exactly: any ray with a positive entry, or any
        nonzero lineality direction, is a witness.
        """
        if any(x > 0 for r in self.rays for x in r):
            return True
        return bool(self.lineality)

    def positive_coordinate_witness(self) -> Optional[IVec]:
        """A primitive generator with a positive coordinate, if any."""
        for r in self.rays:
            if any(x > 0 for x in r):
                return r
        for l in self.lineality:
            if any(x > 0 for x in l):
                return l
            if any(x != 0 for x in l):
                return vneg_int(l)
        return None

    def canonical_key(self):
        return (self.rays, self.lineality)

    def __eq__(self, other):
        return isinstance(other, Cone) and self.n == other.n \
            and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash((self.n, self.canonical_key()))

    def __repr__(self):
        return f"Cone(n={self.n}, rays={list(self.rays)}, lineality={list(self.lineality)})"


def is_dicritical_cone(c: Cone) -> bool:
    """True iff the cone is not contained in the nonpositive orthant."""
    return c.has_positive_coordinate()


# ---------------------------------------------------------------------------
# coverage of a polyhedron by a finite union of polyhedra
# ---------------------------------------------------------------------------

def strict_witness(n, ineqs, eqs, stricts) -> Optional[Vec]:
    """A point of {ineqs, eqs, strict inequalities a . x < b}, or None.

    Lifted with a slack t: a . x + t <= b and t maximized; the region is
    nonempty iff sup t > 0, and a generator with positive slack yields an
    explicit witness.
    """
    lifted = [(tuple(a) + (Fraction(0),), b) for a, b in ineqs]
    lifted += [(tuple(a) + (Fraction(1),), b) for a, b in stricts]
    leqs = [(tuple(a) + (Fraction(0),), b) for a, b in eqs]
    t_axis = tuple([Fraction(0)] * n + [Fraction(-1)])
    lifted.append((t_axis, Fraction(0)))  # t >= 0
    P = Polyhedron.from_hrep(n + 1, lifted, leqs)
    if P.is_empty:
        return None
    for p in P.vertices:
        if p[-1] > 0:
            return p[:-1]
    base = P.vertices[0]
    for r in P.rays:
        if r[-1] > 0:
            return vadd(base, frac_vec(r))[:-1]
    for l in P.lineality:
        if l[-1] > 0:
            return vadd(base, frac_vec(l))[:-1]
        if l[-1] < 0:
            return vsub(base, frac_vec(l))[:-1]
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
