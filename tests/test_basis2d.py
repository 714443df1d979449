"""Tensor-product and serendipity basis arrays: golden entries, counts,
classification, span, and nodal structure."""

from fractions import Fraction

import pytest

from reference_bases import REFERENCE_SERENDIPITY
from srdpeig.basis1d import generate_phi
from srdpeig.basis2d import (
    EDGE,
    FAMILIES,
    INTERIOR,
    VERTEX,
    basis_rank,
    classify_dofs,
    combination,
    coordinates_in_basis,
    serendipity_basis,
    serendipity_dimension,
    serendipity_interior_count,
    slot_factors,
    span_check,
    tensor_basis,
)
from srdpeig.mesh import reference_basis
from srdpeig.polynomial import Polynomial, X, Y

H = Fraction(1, 2)
Q = Fraction(1, 4)

#: Corner and edge-midpoint sample points of the reference square.
CORNERS = [(-1, -1), (1, -1), (-1, 1), (1, 1)]
MIDPOINTS = {"left": (-1, 0), "right": (1, 0), "bottom": (0, -1), "top": (0, 1)}


class TestTensor:
    def test_p1_is_bilinear_quadruple(self):
        basis = tensor_basis(1)
        assert basis.entry(1, 1) == Q * (1 - X) * (1 - Y)
        assert basis.entry(2, 1) == Q * (1 + X) * (1 - Y)
        assert basis.entry(1, 2) == Q * (1 - X) * (1 + Y)
        assert basis.entry(2, 2) == Q * (1 + X) * (1 + Y)

    def test_p2_center_entry(self):
        assert tensor_basis(2).entry(2, 2) == (1 - X**2) * (1 - Y**2)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_entries_are_products(self, p):
        phi = generate_phi(p).functions
        basis = tensor_basis(p)
        for i in range(1, p + 2):
            for j in range(1, p + 2):
                assert basis.entry(i, j) == phi[i - 1] * phi[j - 1].swap_xy()

    @pytest.mark.parametrize("p", range(1, 7))
    def test_counts(self, p):
        assert tensor_basis(p).count_nonzero == (p + 1) ** 2

    @pytest.mark.parametrize("p", range(1, 7))
    def test_span_covers_full_grid(self, p):
        assert span_check(tensor_basis(p)).all_ok


class TestSerendipity:
    @pytest.mark.parametrize("p", sorted(REFERENCE_SERENDIPITY))
    def test_reference_arrays_exact(self, p):
        basis = serendipity_basis(p)
        grid = REFERENCE_SERENDIPITY[p]
        for i in range(1, p + 2):
            for j in range(1, p + 2):
                assert basis.entry(i, j) == grid[i - 1][j - 1], f"p={p} slot ({i},{j})"

    def test_p3_corner(self):
        assert serendipity_basis(3).entry(1, 1) == Q * (X - 1) * (Y - 1) * (
            X**2 + Y**2 - 1
        )

    def test_p4_count_and_shape(self):
        basis = serendipity_basis(4)
        assert basis.size == 4
        assert basis.count_nonzero == 17

    def test_p1_equals_tensor(self):
        assert serendipity_basis(1).entries == tensor_basis(1).entries

    @pytest.mark.parametrize("p", range(1, 7))
    def test_counts(self, p):
        # dimension formula holds for p >= 2; at p = 1 the two extra
        # monomials coincide and the space is plain bilinear (4 functions)
        assert serendipity_basis(p).count_nonzero == serendipity_dimension(p)
        if p >= 2:
            assert serendipity_dimension(p) * 2 == p * p + 3 * p + 6

    @pytest.mark.parametrize("p", range(1, 7))
    def test_degree_bounds(self, p):
        for poly in serendipity_basis(p).functions():
            assert poly.degree_x <= p and poly.degree_y <= p
            for (i, j), _ in poly.terms.items():
                assert i + j <= p or (i, j) in ((p, 1), (1, p))

    @pytest.mark.parametrize("p", range(1, 7))
    def test_span_and_rank(self, p):
        basis = serendipity_basis(p)
        assert span_check(basis).all_ok
        assert basis_rank(basis) == basis.count_nonzero

    def test_rejects_crossed_quartic_at_p2(self):
        target = Polynomial.monomial(2, 2)
        assert coordinates_in_basis(serendipity_basis(2), target) is None

    @pytest.mark.parametrize("p", range(1, 7))
    def test_xy_swap_symmetry(self, p):
        basis = serendipity_basis(p)
        for i, j in basis.nonzero_slots():
            assert basis.entry(i, j).swap_xy() == basis.entry(j, i)

    def test_closed_form_p7(self):
        basis = serendipity_basis(7)
        assert basis.count_nonzero == serendipity_dimension(7) == 38
        assert basis_rank(basis) == 38
        assert span_check(basis).all_ok

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
    `slot_factors` without building the polynomials."""
    assert sorted(slot_factors(family, p)) == reference_basis(family, p).nonzero_slots()


class TestClassification:
    def test_tensor_p2_counts(self):
        kinds = [kind.kind for _, kind in classify_dofs(tensor_basis(2))]
        assert kinds.count(VERTEX) == 4
        assert kinds.count(EDGE) == 4
        assert kinds.count(INTERIOR) == 1

    def test_serendipity_p4_counts(self):
        classified = classify_dofs(serendipity_basis(4))
        kinds = [kind.kind for _, kind in classified]
        assert kinds.count(VERTEX) == 4
        assert kinds.count(EDGE) == 12  # four edges, three functionals each
        assert kinds.count(INTERIOR) == 1 == serendipity_interior_count(4)
        per_side = {}
        for _, kind in classified:
            if kind.kind == EDGE:
                per_side.setdefault(kind.side, []).append(kind.k)
        assert all(sorted(ks) == [0, 1, 2] for ks in per_side.values())

    def test_serendipity_p2_has_no_interior(self):
        kinds = [kind.kind for _, kind in classify_dofs(serendipity_basis(2))]
        assert INTERIOR not in kinds
        assert serendipity_interior_count(2) == 0


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
        poly = basis.entry(*slot)
        if kind.kind == VERTEX:
            for corner in CORNERS:
                assert poly(*corner) == (1 if corner == kind.corner else 0)
            for point in MIDPOINTS.values():
                next_to_corner = point[0] == kind.corner[0] or point[1] == kind.corner[1]
                assert poly(*point) == (H if p == 1 and next_to_corner else 0)
        elif kind.kind == EDGE and kind.k == 0:
            for corner in CORNERS:
                assert poly(*corner) == 0
            for side, point in MIDPOINTS.items():
                assert poly(*point) == (1 if side == kind.side else 0)


@pytest.mark.parametrize("p", range(2, 6))
def test_derivative_duality_diagnostic(p, capsys):
    """Diagnostic only: measure how far the serendipity basis is from being
    dual to the full functional set (values plus edge-midpoint derivatives).
    The value-node part is a contract (asserted above); the derivative part
    is recorded, not asserted."""
    basis = serendipity_basis(p)
    worst = Fraction(0)
    for slot, kind in classify_dofs(basis):
        if kind.kind != EDGE or kind.k == 0:
            continue
        for other_slot, other_kind in classify_dofs(basis):
            poly = basis.entry(*other_slot)
            if kind.side in ("left", "right"):
                x0 = -1 if kind.side == "left" else 1
                val = poly.derivative("y", kind.k)(x0, 0)
            else:
                y0 = -1 if kind.side == "bottom" else 1
                val = poly.derivative("x", kind.k)(0, y0)
            expected = 1 if other_slot == slot else 0
            worst = max(worst, abs(val - expected))
    print(f"p={p}: worst derivative-functional deviation {worst}")
