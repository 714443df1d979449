"""Univariate bases on [-1, 1] defined by interpolation at nodes and midpoint.

For order p >= 2 the basis of degree-<=p polynomials is dual to the p+1
functionals

    value at -1,  value at 0,  value at +1,
    k-th derivative at 0 for k = 1 .. p-2,

indexed so that function 1 matches the value at -1, function 2 the value at
0, functions 3..p the derivatives of order 1..p-2, and function p+1 the
value at +1.  Each basis function takes value 1 on its own functional and 0
on all others.  For p = 1 the basis is the pair of linear hat functions on
the endpoints {-1, +1} (the midpoint carries no functional).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import perm
from typing import NamedTuple

from .polynomial import Polynomial, solve_rational_system

NODES = (Fraction(-1), Fraction(0), Fraction(1))


class InvalidIndex(ValueError):
    """Function index outside 1..p+1."""


class Condition(NamedTuple):
    """One interpolation constraint: derivative `order` at `node` equals `value`."""

    node: Fraction
    order: int
    value: Fraction


@dataclass(frozen=True)
class Phi1D:
    """Ordered basis of p+1 univariate polynomials (1-based function indices)."""

    p: int
    functions: tuple[Polynomial, ...]

    def phi(self, i: int) -> Polynomial:
        """Basis function with 1-based index i in 1..p+1."""
        if not 1 <= i <= self.p + 1:
            raise InvalidIndex(f"index {i} outside 1..{self.p + 1}")
        return self.functions[i - 1]

    def __len__(self) -> int:
        return len(self.functions)


def interpolating_conditions(p: int, i: int) -> list[Condition]:
    """Constraint list defining basis function i of the order-p family.

    Every function gets the three nodal value constraints plus the p-2
    midpoint derivative constraints (orders 1..p-2); exactly one constraint
    has value 1, the rest 0.  Only defined for p >= 2; the p = 1 basis is
    fixed separately.
    """
    if p < 2:
        raise ValueError("interpolation conditions are defined for p >= 2")
    if not 1 <= i <= p + 1:
        raise InvalidIndex(f"index {i} outside 1..{p + 1}")

    value_node = {1: Fraction(-1), 2: Fraction(0), p + 1: Fraction(1)}.get(i)
    conditions = [
        Condition(node, 0, Fraction(1 if node == value_node else 0))
        for node in NODES
    ]
    for k in range(1, p - 1):
        hit = i not in (1, 2, p + 1) and k == i - 2
        conditions.append(Condition(Fraction(0), k, Fraction(1 if hit else 0)))
    return conditions


def _solve_conditions(conditions: list[Condition]) -> Polynomial:
    """The polynomial of degree < len(conditions) meeting every condition.

    One exact solve of the square functional matrix, whose row for the
    condition (node, order) holds the order-th derivative of x^m at the node
    for m = 0 .. len(conditions) - 1.  Raises SingularSystem when the
    conditions do not determine the polynomial.
    """
    matrix = [
        [
            perm(m, order) * node ** (m - order) if m >= order else 0
            for m in range(len(conditions))
        ]
        for node, order, _ in conditions
    ]
    coeffs = solve_rational_system(matrix, [c.value for c in conditions])
    return Polynomial({(m, 0): c for m, c in enumerate(coeffs)})


@lru_cache(maxsize=None)
def generate_phi(p: int) -> Phi1D:
    """Build the order-p univariate basis (p >= 1)."""
    if p < 1:
        raise ValueError("order must be >= 1")
    if p == 1:
        half = Fraction(1, 2)
        return Phi1D(
            1,
            (
                Polynomial({(0, 0): half, (1, 0): -half}),  # (1 - x) / 2
                Polynomial({(0, 0): half, (1, 0): half}),  # (1 + x) / 2
            ),
        )
    functions = tuple(
        _solve_conditions(interpolating_conditions(p, i)) for i in range(1, p + 2)
    )
    return Phi1D(p, functions)


def check_conditions(phi: Polynomial, conditions: list[Condition]) -> bool:
    """Exact verification that a polynomial satisfies every condition."""
    return all(
        phi.derivative("x", order)(node) == value
        for node, order, value in conditions
    )
