"""Tropical polynomials and maps in the max-plus convention.

A tropical polynomial is x |-> max_a (<x, a> + coeff_a) over a finite set of
nonnegative integer exponent vectors a, with rational coefficients.  The
coefficients play the role of valuations of classical coefficients; the thin
series parser below converts a leading-order term "c*t^r" to the valuation
-r.  Values are extended by a minus-infinity bottom element for the virtual
levels used throughout the engine.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .geom import frac_vec, vdot

#: Bottom element of the max-plus semifield.  float("-inf") compares
#: correctly against every Fraction, which is all the engine needs.
MINUS_INF = float("-inf")
PLUS_INF = float("inf")

ExtRat = Union[Fraction, float]


def is_minus_inf(v) -> bool:
    return v == MINUS_INF


class SupportError(ValueError):
    """Invalid support data (constant terms, negative exponents...)."""


class TropicalPolynomial:
    """An immutable max-plus polynomial with origin-free integer support.

    Supports containing the origin are rejected: a constant tropical term
    would collide with the virtual-level pseudo-term the engine adjoins at
    the origin, and the face machinery relies on the origin entering each
    extended Newton polytope only through that construction.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple, Union[Fraction, int, str]]):
        if not terms:
            raise SupportError("a tropical polynomial needs at least one term")
        clean = {}
        for exp, coeff in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n:
                raise SupportError(f"exponent {exp} does not have length {n}")
            if any(e < 0 for e in exp):
                raise SupportError(f"exponent {exp} has a negative entry")
            if all(e == 0 for e in exp):
                raise SupportError(
                    "constant term not allowed: supports must avoid the "
                    "origin exponent (no constant tropical terms)")
            if exp in clean:
                raise SupportError(f"duplicate exponent {exp}")
            clean[exp] = Fraction(coeff)
        self.n = n
        self.terms = dict(sorted(clean.items()))

    # -- evaluation ---------------------------------------------------------

    def eval_with_argmax(self, x):
        """(max value, set of exponents attaining it) at the point x."""
        x = frac_vec(x)
        if len(x) != self.n:
            raise ValueError("point dimension mismatch")
        best = None
        argmax = set()
        for exp, coeff in self.terms.items():
            v = vdot(x, exp) + coeff
            if best is None or v > best:
                best = v
                argmax = {exp}
            elif v == best:
                argmax.add(exp)
        return best, argmax

    def __call__(self, x):
        return self.eval_with_argmax(x)[0]

    def in_corner_locus(self, x) -> bool:
        """True iff the maximum is attained by at least two terms at x."""
        return len(self.eval_with_argmax(x)[1]) >= 2

    def in_virtual_preimage(self, level: ExtRat, x) -> bool:
        """Membership in the corner locus of max(self, level).

        The level counts as one extra candidate at the origin exponent; with
        level = -inf this is plain corner-locus membership.
        """
        value, argmax = self.eval_with_argmax(x)
        if is_minus_inf(level):
            return len(argmax) >= 2
        level = Fraction(level)
        if level > value:
            return False
        if level == value:
            return True
        return len(argmax) >= 2

    # -- misc -----------------------------------------------------------------

    @property
    def support(self):
        return list(self.terms)

    def key(self):
        return (self.n, tuple(self.terms.items()))

    def __eq__(self, other):
        return isinstance(other, TropicalPolynomial) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        parts = []
        for exp, coeff in self.terms.items():
            mono = "+".join(f"{e}*x{i}" for i, e in enumerate(exp) if e) or "0"
            parts.append(f"({coeff} + {mono})" if coeff else f"({mono})")
        return "max(" + ", ".join(parts) + ")"


class TropicalMap:
    """A square tuple of tropical polynomials R^n -> R^n."""

    __slots__ = ("n", "components")

    def __init__(self, components: Sequence[TropicalPolynomial]):
        components = list(components)
        if not components:
            raise ValueError("a tropical map needs at least one component")
        n = components[0].n
        if len(components) != n:
            raise ValueError(
                f"map must be square: {len(components)} components in {n} variables")
        if any(p.n != n for p in components):
            raise ValueError("components of mixed ambient dimension")
        self.n = n
        self.components = tuple(components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def term_maps(self):
        return [p.terms for p in self.components]

    def __call__(self, x):
        return tuple(p(x) for p in self.components)

    def key(self):
        return tuple(p.key() for p in self.components)

    def __repr__(self):
        return "TropicalMap(" + ", ".join(map(repr, self.components)) + ")"


# ---------------------------------------------------------------------------
# series-coefficient parsing: "c*t^r" carries valuation -r
# ---------------------------------------------------------------------------

_SERIES_RE = re.compile(
    r"""^\s*
        (?P<coeff>[-+]?[^t*\s]*)          # leading coefficient, may be empty
        \s*\*?\s*
        (?:t(?:\^(?P<exp>[-+]?\d+(?:/\d+)?(?:\.\d+)?))?)?
        \s*$""",
    re.VERBOSE,
)


def valuation_of_series(text: str):
    """Valuation of a leading series term, with any notices.

    "3t^5" -> -5, "t^1/2" -> -1/2, "7" -> 0.  Only the exponent matters;
    a non-real coefficient part is discarded with a notice.
    """
    m = _SERIES_RE.match(text)
    if m is None or ("t" not in text and m.group("exp")):
        raise ValueError(f"cannot parse series coefficient {text!r}")
    notices = []
    coeff = (m.group("coeff") or "").strip()
    if coeff in ("", "+", "-"):
        coeff = coeff + "1"
    try:
        c = Fraction(coeff)
        if c == 0:
            raise ValueError(f"zero coefficient in {text!r} has no valuation")
    except ValueError as exc:
        if "no valuation" in str(exc):
            raise
        notices.append(
            f"non-rational coefficient part {coeff!r} in {text!r} discarded; "
            "only the exponent of t matters")
    if "t" in text:
        exp = m.group("exp")
        r = Fraction(exp) if exp else Fraction(1)
    else:
        r = Fraction(0)
    return -r, notices
