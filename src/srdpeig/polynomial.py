"""Exact sparse polynomial arithmetic over the rationals.

A polynomial in the variables x and y is stored as a dictionary mapping
exponent pairs ``(i, j)`` to ``fractions.Fraction`` coefficients.  Univariate
polynomials are the special case ``j == 0``.  Zero coefficients are never
stored, so equality testing is exact and structural.

The type carries the closed-form 1D basis (`basis1d.generate_phi`) and the
2D basis arrays that the `srdp-eig basis` catalog prints, so it keeps only
what those need: sums and products, scaling by an exact scalar, the x <-> y
swap, and rendering.  The reference matrices do not run on it: `assembly`
reads the 1D coefficients into integer tables.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class Polynomial:
    """Immutable bivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in {(i, j)}")
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"expected int or Fraction, got {c!r}")
                if c != 0:
                    clean[(i, j)] = Fraction(c)
        self._terms = clean

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """Copy of the exponent-to-coefficient map (no zero entries)."""
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return _wrap(out)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Polynomial()
            return _wrap({e: other * v for e, v in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

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


def _wrap(terms: dict[tuple[int, int], Fraction]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    return p
