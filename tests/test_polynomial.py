"""The test oracle's exact polynomial `Poly`, on which every exact check of
the bases runs: its arithmetic against hand-expanded coefficients, its
calculus and integrals, and a guard that the oracles import nothing from
the package they check."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ONE, Poly, X, Y, exact_rank, gauss_box_integral, integrate_box

H = Fraction(1, 2)

coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).filter(lambda f: f != 0)
polynomials = st.dictionaries(
    keys=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    values=coefficients,
    max_size=6,
).map(Poly)


class TestArithmetic:
    def test_add_cancellation(self):
        assert ((X + 1) + -X).terms == {(0, 0): 1}

    def test_add_identity(self):
        p = X**2 * Y - 3 * Y
        assert (Poly.zero() + p).terms == {(2, 1): 1, (0, 1): -3}

    def test_add_univariate_pair(self):
        # half-step combination of two quadratic nodal functions
        assert (H * ((X - 1) * X) + (X * (X + 1)) * H).terms == {(2, 0): 1}

    def test_multiply_expansion(self):
        assert ((1 - X) * (1 - Y)).terms == {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}

    def test_multiply_identity(self):
        p = 2 * X * Y - Y**3
        assert (p * ONE).terms == {(1, 1): 2, (0, 3): -1}

    def test_multiply_bubble(self):
        bubble = (1 - X**2) * (1 - Y**2)
        assert bubble.terms == {(0, 0): 1, (2, 0): -1, (0, 2): -1, (2, 2): 1}

    def test_zero_terms_pruned(self):
        p = Poly({(1, 0): 1, (0, 1): 0})
        assert p.terms == {(1, 0): Fraction(1)}
        assert (X + -X).is_zero

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Poly({(1, 0): 0.5})
        with pytest.raises(TypeError):
            Poly.of({1: 0.5})
        with pytest.raises(TypeError):
            Poly({(1, 0): 1}) * 0.5

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly({(0, -1): 1})


class TestCalculus:
    """Derivatives, evaluation and integrals, all on the oracle's side."""

    def test_derivative_power_rule(self):
        assert (X - X**3).derivative("x") == 1 - 3 * X**2

    def test_second_derivative_of_constant(self):
        assert Poly.of(7).derivative("x", 2).is_zero

    def test_derivative_condition_at_midpoint(self):
        # the cubic vanishing on {-1,0,1} with unit slope at 0
        phi3 = X - X**3
        assert phi3.derivative("x")(0) == 1

    def test_integrate_constant(self):
        assert integrate_box(ONE) == 4

    def test_integrate_odd(self):
        assert integrate_box(X * Y) == 0

    def test_integrate_corner_square(self):
        corner = Fraction(1, 4) * (1 - X) * (1 - Y)
        assert integrate_box(corner * corner) == Fraction(4, 9)

    def test_evaluate_corner(self):
        corner = Fraction(1, 4) * (1 - X) * (1 - Y)
        assert corner(-1, -1) == 1
        assert corner(1, -1) == 0

    def test_evaluate_bubble_at_endpoints(self):
        assert (1 - X**2)(1) == 0
        assert (1 - X**2)(-1) == 0

    def test_evaluate_zero(self):
        assert Poly.zero()(Fraction(3, 7), -2) == 0


def test_rank():
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1]]) == 2


class TestRingProperties:
    @settings(max_examples=60, deadline=None)
    @given(polynomials, polynomials)
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @settings(max_examples=60, deadline=None)
    @given(polynomials, polynomials)
    def test_multiply_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(polynomials, polynomials, polynomials)
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=60, deadline=None)
    @given(polynomials, polynomials, polynomials)
    def test_multiply_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(polynomials, polynomials, polynomials)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(polynomials, polynomials)
    def test_integral_of_product_symmetric(self, a, b):
        assert integrate_box(a * b) == integrate_box(b * a)

    @settings(max_examples=60, deadline=None)
    @given(polynomials)
    def test_integral_matches_quadrature(self, a):
        exact = float(integrate_box(a))
        approx = gauss_box_integral(a)
        assert abs(exact - approx) <= 1e-9 * max(1.0, abs(exact))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 6),
        st.integers(0, 6),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    def test_monomial_derivative_integral_roundtrip(self, i, j, c):
        # antiderivative in x of c x^i y^j integrates back consistently
        mono = Poly.monomial(i, j, c)
        anti = Poly.monomial(i + 1, j, c / (i + 1))
        assert anti.derivative("x") == mono


@pytest.mark.parametrize("name", ["oracles.py", "reference_bases.py"])
def test_oracles_do_not_import_the_package(name):
    """The oracles check the package, so they must not run on any of it."""
    tree = ast.parse((Path(__file__).parent / name).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    assert not {m for m in modules if m.split(".")[0] == "srdpeig"}
