"""Tensor-product and serendipity bases on the reference square [-1, 1]^2.

Bases live in square arrays indexed by (i, j), 1-based, where i tracks the
x-functional and j the y-functional of the underlying univariate families.
For p >= 2, index 1 is the value at -1, index 2 the value at the midpoint,
indices 3..p the midpoint derivatives of orders 1..p-2, and index p+1 the
value at +1.  For p = 1 the array is 2 x 2: index 1 is the value at -1,
index 2 the value at +1, and no midpoint functional exists (as in
`basis1d`).  A zero polynomial marks an empty slot.

Both families come from one rule.  `combination` lists signed 1D x 1D
product tables (px, py); tensor is the single table (p, p).  For
serendipity it follows the sparse-grid combination technique (Griebel,
Schneider & Zenger 1992): for p >= 2 the tables (p, 1), (1, p) and
(a, p - a), 2 <= a <= p - 2, are added and the tables (a, b) with
a + b = max(p - 1, 2) subtracted.  `slot_factors` places each table in the
order-p array, moving the endpoint +1 functional to the last row/column, and
lists per slot the signed products phi_a^(px)(x) * phi_b^(py)(y) whose sum
is the basis function there.  The serendipity space of order p spans every
polynomial of total degree <= p plus the two monomials x^p y and x y^p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .basis1d import generate_phi
from .polynomial import Polynomial

TENSOR = "tensor"
SERENDIPITY = "serendipity"
FAMILIES = (TENSOR, SERENDIPITY)


@dataclass(frozen=True)
class BasisArray:
    """(p+1) x (p+1) array of basis polynomials; zero entries are empty slots."""

    family: str
    p: int
    entries: tuple[tuple[Polynomial, ...], ...]

    def entry(self, i: int, j: int) -> Polynomial:
        """Entry at 1-based slot (i, j)."""
        return self.entries[i - 1][j - 1]

    def nonzero_slots(self) -> list[tuple[int, int]]:
        """1-based slots of nonzero entries, in grid order (i outer, j inner)."""
        return [
            (i + 1, j + 1)
            for i, row in enumerate(self.entries)
            for j, poly in enumerate(row)
            if not poly.is_zero
        ]

    @property
    def count_nonzero(self) -> int:
        return len(self.nonzero_slots())


def _embed(k: int, order: int, size: int) -> int:
    """Index in an order-`size` array of 1D function k of order `order`: the
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
    """Signed 1D factors of every slot of the order-p array, in grid order.

    The entry at slot (i, j) is the sum over its factors (sign, (px, a),
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
    """Order-p array of the family: each slot holds the signed sum of its
    `slot_factors` products; slots without factors stay empty."""
    zero = Polynomial()
    grid = [[zero] * (p + 1) for _ in range(p + 1)]
    for (i, j), terms in slot_factors(family, p).items():
        for sign, (px, a), (py, b) in terms:
            fx = generate_phi(px)[a - 1]
            fy = generate_phi(py)[b - 1].swap_xy()
            grid[i - 1][j - 1] = grid[i - 1][j - 1] + sign * (fx * fy)
    return BasisArray(family, p, tuple(map(tuple, grid)))


def tensor_basis(p: int) -> BasisArray:
    """Order-p tensor-product basis: all (p+1)^2 products are present."""
    return _basis_array(TENSOR, p)


@lru_cache(maxsize=None)
def serendipity_basis(p: int) -> BasisArray:
    """Order-p serendipity basis as a (p+1) x (p+1) array with empty slots.

    Nonzero count is (p^2 + 3p + 6) / 2 for p >= 2 and 4 for p = 1 (where
    the two extra monomials x^p y and x y^p coincide).
    """
    return _basis_array(SERENDIPITY, p)


def serendipity_interior_count(p: int) -> int:
    """Interior functions of the order-p serendipity element."""
    if p < 2:
        return 0
    return (p - 3) * (p - 2) // 2

