"""Tensor-product and serendipity bases on the reference square [-1, 1]^2.

A basis maps slots (i, j), 1-based, to functions, where i tracks the
x-functional and j the y-functional of the underlying univariate families.
For p >= 2, index 1 is the value at -1, index 2 the value at the midpoint,
indices 3..p the midpoint derivatives of orders 1..p-2, and index p+1 the
value at +1.  For p = 1 the indices run to 2: index 1 is the value at -1,
index 2 the value at +1, and no midpoint functional exists (as in
`basis1d`).  Serendipity leaves some slots of the (p+1) x (p+1) grid
without a function.  Each function is its nonzero exact coefficients keyed
by exponent pair (ex, ey), in a read-only mapping.

Both families come from one rule.  `combination` lists signed 1D x 1D
product tables (px, py); tensor is the single table (p, p).  For
serendipity it follows the sparse-grid combination technique (Griebel,
Schneider & Zenger 1992): for p >= 2 the tables (p, 1), (1, p) and
(a, p - a), 2 <= a <= p - 2, are added and the tables (a, b) with
a + b = max(p - 1, 2) subtracted.  `slot_factors` places each table in the
order-p grid, moving the endpoint +1 functional to the last row/column, and
lists per slot the signed products phi_a^(px)(x) * phi_b^(py)(y) whose sum
is the basis function there.  The serendipity space of order p spans every
polynomial of total degree <= p plus the two monomials x^p y and x y^p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .basis1d import generate_phi

TENSOR = "tensor"
SERENDIPITY = "serendipity"
FAMILIES = (TENSOR, SERENDIPITY)


@dataclass(frozen=True)
class BasisArray:
    """Order-p basis of a family: `functions` maps each 1-based slot (i, j)
    that holds a function, in grid order (i outer, j inner), to its
    coefficients {(ex, ey): Fraction}.  Both levels are read-only."""

    family: str
    p: int
    functions: Mapping[tuple[int, int], Mapping[tuple[int, int], Fraction]]

    @property
    def count_nonzero(self) -> int:
        return len(self.functions)


def _embed(k: int, order: int, size: int) -> int:
    """Index in an order-`size` grid of 1D function k of order `order`: the
    last function (endpoint +1) moves to the last index, the others stay."""
    return size + 1 if k == order + 1 else k


def combination(family: str, p: int) -> list[tuple[int, tuple[int, int]]]:
    """Signed product tables (sign, (px, py)) whose sum is the order-p basis.

    Tensor is the single table (p, p).  Serendipity follows the sparse-grid
    combination technique: for p >= 2 the + tables are (p, 1), (1, p) and
    (a, p - a) for 2 <= a <= p - 2, the - tables are (a, b) with a, b >= 1
    and a + b = max(p - 1, 2); p = 1 is the bilinear table (1, 1).
    """
    if p < 1:
        raise ValueError("order must be >= 1")
    if family == TENSOR:
        return [(+1, (p, p))]
    if family != SERENDIPITY:
        raise ValueError(f"unknown family {family!r}")
    if p == 1:
        return [(+1, (1, 1))]
    plus = [(p, 1), (1, p)] + [(a, p - a) for a in range(2, p - 1)]
    m = max(p - 1, 2)
    minus = [(a, m - a) for a in range(1, m)]
    return [(+1, t) for t in plus] + [(-1, t) for t in minus]


def slot_factors(
    family: str, p: int
) -> dict[tuple[int, int], list[tuple[int, tuple[int, int], tuple[int, int]]]]:
    """Signed 1D factors of every slot of the order-p grid, in grid order.

    The function at slot (i, j) is the sum over its factors (sign, (px, a),
    (py, b)) of sign * phi_a^(px)(x) * phi_b^(py)(y), with phi from
    `generate_phi`.  This fixes the local slot order (i outer, j inner)
    that the reference matrices and the DOF numbering read.
    """
    factors: dict[tuple[int, int], list] = {}
    for sign, (px, py) in combination(family, p):
        for a in range(1, px + 2):
            for b in range(1, py + 2):
                slot = (_embed(a, px, p), _embed(b, py, p))
                factors.setdefault(slot, []).append((sign, (px, a), (py, b)))
    return dict(sorted(factors.items()))


def _basis_array(family: str, p: int) -> BasisArray:
    """Order-p basis of the family: each slot's function is the signed sum
    of its `slot_factors` products, expanded term by term."""
    functions = {}
    for slot, terms in slot_factors(family, p).items():
        poly: dict[tuple[int, int], Fraction] = {}
        for sign, (px, a), (py, b) in terms:
            fy = generate_phi(py)[b - 1]
            for ex, cx in generate_phi(px)[a - 1].items():
                for ey, cy in fy.items():
                    poly[ex, ey] = poly.get((ex, ey), 0) + sign * cx * cy
        functions[slot] = MappingProxyType({e: c for e, c in poly.items() if c})
    return BasisArray(family, p, MappingProxyType(functions))


def tensor_basis(p: int) -> BasisArray:
    """Order-p tensor-product basis: all (p+1)^2 products are present."""
    return _basis_array(TENSOR, p)


@lru_cache(maxsize=None)
def serendipity_basis(p: int) -> BasisArray:
    """Order-p serendipity basis: some slots of the (p+1) x (p+1) grid
    hold no function.

    Function count is (p^2 + 3p + 6) / 2 for p >= 2 and 4 for p = 1 (where
    the two extra monomials x^p y and x y^p coincide).
    """
    return _basis_array(SERENDIPITY, p)

