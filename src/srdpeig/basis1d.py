"""Univariate bases on [-1, 1], built from their closed form.

For order p >= 2 the basis of degree-<=p polynomials is dual to the p+1
functionals

    value at -1,  value at 0,  value at +1,
    k-th derivative at 0 for k = 1 .. p-2,

indexed so that function 1 matches the value at -1, function 2 the value at
0, functions 3..p the derivatives of order 1..p-2, and function p+1 the
value at +1.  Each basis function takes value 1 on its own functional and 0
on all others.  For p = 1 the basis is the pair of linear hat functions on
the endpoints {-1, +1} (the midpoint carries no functional).

The dual basis has a closed form.  Let m_k be whichever of p-1 and p has
the parity of k.  Then

    phi_1     = (-1)^p (x^p - x^(p-1)) / 2,
    phi_(k+2) = (x^k - x^(m_k)) / k!        for k = 0 .. p-2,
    phi_(p+1) = (x^p + x^(p-1)) / 2.

Why it holds: x^(p-1) and x^p have no derivative of order <= p-2 at 0, so
only x^k in phi_(k+2) meets a midpoint functional, and its k-th derivative
there is k!.  At x = +-1 the powers x^k and x^(m_k) agree, so phi_(k+2)
vanishes at both endpoints; x^p - x^(p-1) vanishes at +1 and x^p + x^(p-1)
at -1, and the factors in front make the remaining endpoint value 1.  The
p+1 functionals determine a polynomial of degree <= p uniquely, so these are
the basis functions.  For p = 1 the outer pair reads (1 - x)/2 and (1 + x)/2
and the middle range is empty.

Each function is its nonzero exact coefficients keyed by power of x, in a
read-only mapping: the cached tuple is shared by every caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Mapping


@lru_cache(maxsize=None)
def generate_phi(p: int) -> tuple[Mapping[int, Fraction], ...]:
    """The order-p univariate basis phi_1 .. phi_(p+1) (p >= 1), each as its
    nonzero coefficients keyed by power of x, in a read-only mapping."""
    if p < 1:
        raise ValueError("order must be >= 1")
    half, end = Fraction(1, 2), Fraction((-1) ** p, 2)
    left = {p: end, p - 1: -end}
    middle = [
        {k: Fraction(1, factorial(k)), p - (p - k) % 2: Fraction(-1, factorial(k))}
        for k in range(p - 1)
    ]
    right = {p: half, p - 1: half}
    return tuple(MappingProxyType(f) for f in (left, *middle, right))
