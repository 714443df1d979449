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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .polynomial import Polynomial


@lru_cache(maxsize=None)
def generate_phi(p: int) -> tuple[Polynomial, ...]:
    """The order-p univariate basis phi_1 .. phi_(p+1) (p >= 1)."""
    if p < 1:
        raise ValueError("order must be >= 1")
    half = Fraction(1, 2)
    left = Polynomial({(p, 0): half, (p - 1, 0): -half}) * (-1) ** p
    middle = [
        Polynomial({(k, 0): 1, (p - (p - k) % 2, 0): -1}) * Fraction(1, factorial(k))
        for k in range(p - 1)
    ]
    right = Polynomial({(p, 0): half, (p - 1, 0): half})
    return (left, *middle, right)
