"""Tensor-product and serendipity bases: golden functions, counts,
classification, span, and nodal structure."""

from fractions import Fraction
from typing import NamedTuple

import pytest

from oracles import (
    Poly,
    X,
    Y,
    basis_functions,
    coordinates,
    polynomial_rank,
    serendipity_interior_count,
    space_exponents,
    spans,
)
from reference_bases import REFERENCE_SERENDIPITY
from srdpeig.assembly import reference_matrices
from srdpeig.basis1d import generate_phi
from srdpeig.basis2d import (
    FAMILIES,
    combination,
    serendipity_basis,
    slot_factors,
    tensor_basis,
)
from srdpeig.mesh import CORNERS, SIDES, reference_basis, slot_rule

H = Fraction(1, 2)
Q = Fraction(1, 4)

#: Edge-midpoint sample points of the reference square.
MIDPOINTS = {"left": (-1, 0), "right": (1, 0), "bottom": (0, -1), "top": (0, 1)}


class Role(NamedTuple):
    """Geometric role of a slot: the corner of a vertex DOF, or the side and
    functional order k of an edge DOF (0 = midpoint value, k >= 1 = k-th
    tangential derivative)."""

    kind: str
    corner: tuple[int, int] | None = None
    side: str | None = None
    k: int | None = None


def classify_dofs(basis):
    """(slot, role) of every slot of a basis, in grid order,
    read from `mesh.slot_rule`, the rule the DOF numbering runs: columns
    0-3 are the corners in `CORNERS` order, 4-7 the sides in `SIDES` order
    (the offset is k), and 8 is interior."""
    slots, column, offset, _ = slot_rule(basis.family, basis.p)
    assert list(slots) == list(basis.functions)
    roles = []
    for c, k in zip(column, offset):
        if c < 4:
            roles.append(Role("vertex", corner=CORNERS[c]))
        elif c < 8:
            roles.append(Role("edge", side=SIDES[c - 4], k=k))
        else:
            roles.append(Role("interior"))
    return list(zip(slots, roles))


def serendipity_dimension(p):
    """Dimension of the order-p serendipity space, from its monomials."""
    return len(space_exponents("serendipity", p))


class TestTensor:
    def test_p1_is_bilinear_quadruple(self):
        basis = tensor_basis(1)
        assert basis.functions[1, 1] == Q * (1 - X) * (1 - Y)
        assert basis.functions[2, 1] == Q * (1 + X) * (1 - Y)
        assert basis.functions[1, 2] == Q * (1 - X) * (1 + Y)
        assert basis.functions[2, 2] == Q * (1 + X) * (1 + Y)

    def test_p2_center_entry(self):
        assert tensor_basis(2).functions[2, 2] == (1 - X**2) * (1 - Y**2)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_entries_are_products(self, p):
        phi = generate_phi(p)
        basis = tensor_basis(p)
        for i in range(1, p + 2):
            for j in range(1, p + 2):
                in_y = Poly({(0, k): c for k, c in phi[j - 1].items()})
                assert basis.functions[i, j] == phi[i - 1] * in_y

    @pytest.mark.parametrize("p", range(1, 7))
    def test_counts(self, p):
        assert tensor_basis(p).count_nonzero == (p + 1) ** 2

    @pytest.mark.parametrize("p", range(1, 7))
    def test_span_covers_full_grid(self, p):
        basis = tensor_basis(p)
        assert spans(basis_functions(basis), space_exponents("tensor", p))


class TestSerendipity:
    @pytest.mark.parametrize("p", sorted(REFERENCE_SERENDIPITY))
    def test_reference_arrays_exact(self, p):
        basis = serendipity_basis(p)
        grid = REFERENCE_SERENDIPITY[p]
        for i in range(1, p + 2):
            for j in range(1, p + 2):
                got = basis.functions.get((i, j), {})
                assert got == grid[i - 1][j - 1], f"p={p} slot ({i},{j})"

    def test_p3_corner(self):
        assert serendipity_basis(3).functions[1, 1] == Q * (X - 1) * (Y - 1) * (
            X**2 + Y**2 - 1
        )

    def test_p4_count_and_shape(self):
        basis = serendipity_basis(4)
        assert max(max(slot) for slot in basis.functions) == 5
        assert basis.count_nonzero == 17

    def test_p1_equals_tensor(self):
        assert serendipity_basis(1).functions == tensor_basis(1).functions

    @pytest.mark.parametrize("p", range(1, 7))
    def test_counts(self, p):
        # dimension formula holds for p >= 2; at p = 1 the two extra
        # monomials coincide and the space is plain bilinear (4 functions)
        assert serendipity_basis(p).count_nonzero == serendipity_dimension(p)
        if p >= 2:
            assert serendipity_dimension(p) * 2 == p * p + 3 * p + 6

    @pytest.mark.parametrize("p", range(1, 7))
    def test_degree_bounds(self, p):
        for poly in basis_functions(serendipity_basis(p)):
            for i, j in poly.terms:
                assert i <= p and j <= p
                assert i + j <= p or (i, j) in ((p, 1), (1, p))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_span_and_rank(self, p):
        basis = serendipity_basis(p)
        assert spans(basis_functions(basis), space_exponents("serendipity", p))
        assert polynomial_rank(basis_functions(basis)) == basis.count_nonzero

    def test_rejects_crossed_quartic_at_p2(self):
        target = Poly.monomial(2, 2)
        assert coordinates(basis_functions(serendipity_basis(2)), target) is None

    @pytest.mark.parametrize("p", range(1, 7))
    def test_xy_swap_symmetry(self, p):
        functions = serendipity_basis(p).functions
        for (i, j), f in functions.items():
            assert {(ey, ex): c for (ex, ey), c in f.items()} == functions[j, i]

    def test_closed_form_p7(self):
        basis = serendipity_basis(7)
        assert basis.count_nonzero == serendipity_dimension(7) == 38
        assert polynomial_rank(basis_functions(basis)) == 38
        assert spans(basis_functions(basis), space_exponents("serendipity", 7))

    def test_closed_form_p8_count(self):
        assert serendipity_basis(8).count_nonzero == serendipity_dimension(8) == 47

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            serendipity_basis(0)

    @pytest.mark.parametrize("family, p", [("tensor", 0), ("lagrange", 2)])
    def test_combination_rejects_bad_input(self, family, p):
        with pytest.raises(ValueError):
            combination(family, p)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p", range(1, 9))
def test_factor_slots_are_nonzero_slots(family, p):
    """Every slot with factors holds a nonzero function: no combination
    cancels a slot to zero, so the study path may number slots from
    `slot_factors` without building the polynomials.  They come in grid
    order, the order of the basis's `functions`, and no stored coefficient
    is zero."""
    functions = reference_basis(family, p).functions
    assert list(slot_factors(family, p)) == list(functions)
    assert all(c != 0 for f in functions.values() for c in f.values())
    assert all(functions.values())


def test_cached_bases_are_read_only():
    """`generate_phi` and `serendipity_basis` hand every caller the same
    cached value, so no caller can change it in place."""
    phi = generate_phi(3)
    functions = serendipity_basis(3).functions
    with pytest.raises(TypeError):
        phi[0][3] = Fraction(7)
    with pytest.raises(TypeError):
        functions[1, 1][0, 0] = Fraction(7)
    with pytest.raises(TypeError):
        del functions[1, 1]
    assert generate_phi(3) is phi and serendipity_basis(3).functions is functions
    assert phi[0] == {3: Fraction(-1, 2), 2: Fraction(1, 2)}
    assert len(functions) == 12


class TestClassification:
    def test_tensor_p2_counts(self):
        kinds = [kind.kind for _, kind in classify_dofs(tensor_basis(2))]
        assert kinds.count("vertex") == 4
        assert kinds.count("edge") == 4
        assert kinds.count("interior") == 1

    def test_serendipity_p4_counts(self):
        classified = classify_dofs(serendipity_basis(4))
        kinds = [kind.kind for _, kind in classified]
        assert kinds.count("vertex") == 4
        assert kinds.count("edge") == 12  # four edges, three functionals each
        assert kinds.count("interior") == 1 == serendipity_interior_count(4)
        per_side = {}
        for _, kind in classified:
            if kind.kind == "edge":
                per_side.setdefault(kind.side, []).append(kind.k)
        assert all(sorted(ks) == [0, 1, 2] for ks in per_side.values())

    def test_serendipity_p2_has_no_interior(self):
        kinds = [kind.kind for _, kind in classify_dofs(serendipity_basis(2))]
        assert "interior" not in kinds
        assert serendipity_interior_count(2) == 0


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p", range(1, 9))
def test_slot_rule_counts(family, p):
    """The numbering's slots are the reference matrices' slots; the rule
    finds 4 vertices, edge orders 0..p-2 on each side, and the interior
    count of the family."""
    slots, column, offset, n_interior = slot_rule(family, p)
    assert slots == reference_matrices(family, p).slots
    assert sorted(c for c in column if c < 4) == [0, 1, 2, 3]
    for c in range(4, 8):
        assert sorted(k for col, k in zip(column, offset) if col == c) == list(range(p - 1))
    interior = (p - 1) ** 2 if family == "tensor" else serendipity_interior_count(p)
    assert n_interior == interior
    assert [k for col, k in zip(column, offset) if col == 8] == list(range(interior))


@pytest.mark.parametrize("family", ["tensor", "serendipity"])
@pytest.mark.parametrize("p", range(1, 6))
def test_value_node_kronecker(family, p):
    """Vertex functions peak at their own corner; midpoint-value edge
    functions peak at their own midpoint; all vanish at the other value
    nodes.  Checked exactly.

    For p >= 2 the value nodes are the corners and the edge midpoints.  At
    p = 1 they are the corners only: no midpoint functional exists, and the
    vertex function (1/4)(1 +- x)(1 +- y) takes the bilinear values 1/2 at
    the two edge midpoints next to its corner and 0 at the other two."""
    basis = tensor_basis(p) if family == "tensor" else serendipity_basis(p)
    for slot, kind in classify_dofs(basis):
        poly = Poly.of(basis.functions[slot])
        if kind.kind == "vertex":
            for corner in CORNERS:
                assert poly(*corner) == (1 if corner == kind.corner else 0)
            for point in MIDPOINTS.values():
                next_to_corner = point[0] == kind.corner[0] or point[1] == kind.corner[1]
                assert poly(*point) == (H if p == 1 and next_to_corner else 0)
        elif kind.kind == "edge" and kind.k == 0:
            for corner in CORNERS:
                assert poly(*corner) == 0
            for side, point in MIDPOINTS.items():
                assert poly(*point) == (1 if side == kind.side else 0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("p", range(2, 9))
def test_derivative_duality(family, p):
    """Each edge-derivative functional (the k-th tangential derivative at
    an edge midpoint, k >= 1) is 1 on its own function and 0 on every other
    function of the basis, exactly."""
    basis = reference_basis(family, p)
    polys = {slot: Poly.of(f) for slot, f in basis.functions.items()}
    worst = Fraction(0)
    for slot, kind in classify_dofs(basis):
        if kind.kind != "edge" or kind.k == 0:
            continue
        for other_slot, poly in polys.items():
            if kind.side in ("left", "right"):
                x0 = -1 if kind.side == "left" else 1
                val = poly.derivative("y", kind.k)(x0, 0)
            else:
                y0 = -1 if kind.side == "bottom" else 1
                val = poly.derivative("x", kind.k)(0, y0)
            expected = 1 if other_slot == slot else 0
            worst = max(worst, abs(val - expected))
    assert worst == 0
