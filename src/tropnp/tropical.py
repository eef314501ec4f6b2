"""Tropical polynomials and maps in the max-plus convention.

A tropical polynomial is x |-> max_a (<x, a> + coeff_a) over a finite set of
nonnegative integer exponent vectors a, with rational coefficients.  The
coefficients play the role of valuations of classical coefficients; the thin
series parser below converts a leading-order term "c*t^r" to the valuation
-r.  A virtual level y_i, as in max(f_i, y_i), is the constant term y_i at
the origin exponent, which only the oracle adds (`oracle.virtual_preimage`);
a tropical polynomial here never has one of its own.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .geom import frac_vec, vdot

#: Bottom element of the max-plus semifield.  float("-inf") compares
#: correctly against every Fraction.
MINUS_INF = float("-inf")


class SupportError(ValueError):
    """Invalid support data (constant terms, negative exponents...)."""


class TropicalPolynomial:
    """An immutable max-plus polynomial with origin-free integer support.

    Supports containing the origin are rejected: a virtual level is the
    constant term at the origin that the oracle adds, which would overwrite
    a constant term of the polynomial's own, and the extended Newton
    polytopes of `faces` adjoin the origin to supports that avoid it.
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

    def __repr__(self):
        return "TropicalMap(" + ", ".join(map(repr, self.components)) + ")"


# ---------------------------------------------------------------------------
# series-coefficient parsing: "c*t^r" carries valuation -r
# ---------------------------------------------------------------------------

#: The start of a decimal in exponent notation as Fraction reads it ("1e-9",
#: "-.5E+3"): Fraction expands the exponent into a power of ten, so its work
#: grows with the exponent's value, and a short text can stall.
_EXPONENT_NOTATION = r"\s*[-+]?(?=\d|\.\d)[\d_]*(?:\.[\d_]*)?[eE][-+]?\d"


def exact_fraction(v) -> Fraction:
    """Fraction(v), with text in exponent notation refused by a ValueError."""
    if isinstance(v, str) and re.match(_EXPONENT_NOTATION, v):
        raise ValueError(f"exponent notation is not accepted: {v!r}")
    return Fraction(v)


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
    if m is None or not text.strip() or ("t" not in text and m.group("exp")):
        raise ValueError(f"cannot parse series coefficient {text!r}")
    notices = []
    coeff = (m.group("coeff") or "").strip()
    if coeff in ("", "+", "-"):
        coeff = coeff + "1"
    if re.match(_EXPONENT_NOTATION, coeff):
        raise ValueError(f"exponent notation is not accepted: {text!r}")
    try:
        c = Fraction(coeff)
    except ValueError:
        c = None
        notices.append(
            f"non-rational coefficient part {coeff!r} in {text!r} discarded; "
            "only the exponent of t matters")
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    if c == 0:
        raise ValueError(f"zero coefficient in {text!r} has no valuation")
    try:
        r = Fraction(m.group("exp") or 1) if "t" in text else Fraction(0)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return -r, notices
