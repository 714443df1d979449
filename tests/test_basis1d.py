"""Univariate basis construction against its defining conditions and the
hand-entered reference tables."""

from fractions import Fraction

import pytest

from oracles import Poly, exact_rank, interpolating_conditions
from reference_bases import REFERENCE_PHI
from srdpeig.basis1d import generate_phi

NODES = (Fraction(-1), Fraction(0), Fraction(1))


class TestConditions:
    def test_p3_i3(self):
        conds = interpolating_conditions(3, 3)
        assert set(conds) == {(-1, 0, 0), (0, 0, 0), (1, 0, 0), (0, 1, 1)}

    def test_p2_i2(self):
        conds = interpolating_conditions(2, 2)
        assert set(conds) == {(-1, 0, 0), (0, 0, 1), (1, 0, 0)}

    def test_p2_i3_no_derivative_rows(self):
        conds = interpolating_conditions(2, 3)
        assert all(order == 0 for _, order, _ in conds)
        assert set(conds) == {(-1, 0, 0), (0, 0, 0), (1, 0, 1)}

    def test_every_function_gets_one_unit_condition(self):
        for p in range(1, 7):
            for i in range(1, p + 2):
                conds = interpolating_conditions(p, i)
                assert len(conds) == p + 1
                assert sum(value for _, _, value in conds) == 1

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            interpolating_conditions(3, 0)
        with pytest.raises(ValueError):
            interpolating_conditions(3, 5)

    def test_p1_endpoint_pair(self):
        assert interpolating_conditions(1, 1) == [(-1, 0, 1), (1, 0, 0)]
        assert interpolating_conditions(1, 2) == [(-1, 0, 0), (1, 0, 1)]


class TestGeneration:
    @pytest.mark.parametrize("p", sorted(REFERENCE_PHI))
    def test_reference_tables_exact(self, p):
        generated = generate_phi(p)
        expected = REFERENCE_PHI[p]
        assert len(generated) == len(expected)
        for k, (a, b) in enumerate(zip(generated, expected), start=1):
            assert a == b, f"p={p}, function {k}: {a} != {b}"

    @pytest.mark.parametrize("p", range(1, 13))
    def test_all_conditions_hold_exactly(self, p):
        # p + 1 functionals fix a polynomial of degree <= p uniquely, so this
        # pins the closed form to the dual basis
        phi = generate_phi(p)
        assert len(phi) == p + 1
        for i, f in enumerate(phi, start=1):
            assert all(0 <= k <= p for k in f)
            f = Poly.of(f)
            for node, order, value in interpolating_conditions(p, i):
                assert f.derivative("x", order)(node) == value

    @pytest.mark.parametrize("p", range(1, 7))
    def test_basic_shape(self, p):
        phi = generate_phi(p)
        assert len(phi) == p + 1
        assert all(k <= p and c != 0 for f in phi for k, c in f.items())

    @pytest.mark.parametrize("p", range(2, 7))
    def test_nodal_kronecker_structure(self, p):
        phi = generate_phi(p)
        carriers = {Fraction(-1): 1, Fraction(0): 2, Fraction(1): p + 1}
        for node in NODES:
            for i in range(1, p + 2):
                value = Poly.of(phi[i - 1])(node)
                assert value == (1 if carriers[node] == i else 0)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_full_rank_basis(self, p):
        funcs = generate_phi(p)
        matrix = [[f.get(m, 0) for m in range(p + 1)] for f in funcs]
        assert exact_rank(matrix) == p + 1

    def test_minimal_degrees(self):
        # the midpoint-value function drops degree where parity allows
        for p, degree in ((3, 2), (4, 4), (5, 4)):
            assert max(generate_phi(p)[1]) == degree

    def test_p1_fixed_pair(self):
        left, right = map(Poly.of, generate_phi(1))
        assert left(-1) == 1 and left(1) == 0
        assert right(-1) == 0 and right(1) == 1

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            generate_phi(0)
