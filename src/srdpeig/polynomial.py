"""Exact sparse polynomial arithmetic over the rationals.

A polynomial in the variables x and y is stored as a dictionary mapping
exponent pairs ``(i, j)`` to ``fractions.Fraction`` coefficients.  Univariate
polynomials are the special case ``j == 0``.  Zero coefficients are never
stored, so equality testing is exact and structural.

All basis construction in this package runs on these exact polynomials;
floating point only enters when reference matrices are scaled and handed to
the assembly layer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Union

Scalar = Union[int, Fraction]

_HALF_EXACT = "expected int or Fraction, got {!r}"


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(_HALF_EXACT.format(value))


class Polynomial:
    """Immutable bivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in {(i, j)}")
                c = _coerce(c)
                if c != 0:
                    clean[(i, j)] = c
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = 1) -> "Polynomial":
        return cls({(i, j): c})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """Copy of the exponent-to-coefficient map (no zero entries)."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = _as_poly(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _wrap({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return _as_poly(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _coerce(other)
            if c == 0:
                return Polynomial()
            return _wrap({e: c * v for e, v in self._terms.items()})
        out: dict[tuple[int, int], Fraction] = {}
        for (ia, ja), ca in self._terms.items():
            for (ib, jb), cb in other._terms.items():
                e = (ia + ib, ja + jb)
                s = out.get(e, Fraction(0)) + ca * cb
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return _wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- calculus ----------------------------------------------------------

    def derivative(self, variable: str, order: int = 1) -> "Polynomial":
        """Exact partial derivative of the given order (variable 'x' or 'y')."""
        if variable not in ("x", "y"):
            raise ValueError(f"unknown variable {variable!r}")
        if order < 0:
            raise ValueError("negative derivative order")
        out = self
        for _ in range(order):
            terms: dict[tuple[int, int], Fraction] = {}
            for (i, j), c in out._terms.items():
                if variable == "x" and i > 0:
                    terms[(i - 1, j)] = c * i
                elif variable == "y" and j > 0:
                    terms[(i, j - 1)] = c * j
            out = _wrap(terms)
        return out

    def __call__(self, x0: Scalar, y0: Scalar = 0) -> Fraction:
        """Exact evaluation at a rational point (y0 defaults to 0)."""
        x0 = _coerce(x0)
        y0 = _coerce(y0)
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            total += c * x0**i * y0**j
        return total

    def swap_xy(self) -> "Polynomial":
        """The polynomial with x and y interchanged."""
        return _wrap({(j, i): c for (i, j), c in self._terms.items()})

    # -- rendering ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (i, j), c in sorted(
            self._terms.items(), key=lambda t: (-(t[0][0] + t[0][1]), -t[0][0], -t[0][1])
        ):
            mono = "*".join(
                filter(None, [_power("x", i), _power("y", j)])
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def content_and_primitive(self) -> tuple[Fraction, "Polynomial"]:
        """Split into (scalar content, integer-coefficient polynomial).

        The content carries the sign of the highest-order term so the
        primitive part's leading coefficient is positive.
        """
        if not self._terms:
            return Fraction(0), Polynomial()
        num = 0
        den = 1
        for c in self._terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        content = Fraction(num, den)
        lead = max(self._terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0][0]))
        if lead[1] < 0:
            content = -content
        prim = _wrap({e: c / content for e, c in self._terms.items()})
        return content, prim


def _power(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}"


def _as_poly(value: "Polynomial | Scalar") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(value)


def _wrap(terms: dict[tuple[int, int], Fraction]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    return p


#: The coordinate polynomials, for building expressions like (1 - X**2) * Y.
X = Polynomial.monomial(1, 0)
Y = Polynomial.monomial(0, 1)
ONE = Polynomial.constant(1)

