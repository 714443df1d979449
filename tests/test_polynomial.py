"""Exact polynomial arithmetic: the package's `Polynomial` against values
written with the test oracle's own `Poly`, and the oracle's calculus."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ONE, Poly, X, Y, exact_rank, gauss_box_integral, integrate_box
from srdpeig.polynomial import Polynomial

H = Fraction(1, 2)


def pkg(poly: Poly) -> Polynomial:
    """The package polynomial with the same terms as an oracle expression."""
    return Polynomial(poly.terms)


coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
).filter(lambda f: f != 0)
polynomials = st.dictionaries(
    keys=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    values=coefficients,
    max_size=6,
).map(Polynomial)


class TestArithmetic:
    def test_add_cancellation(self):
        assert pkg(X + 1) + pkg(-X) == ONE

    def test_add_identity(self):
        p = X**2 * Y - 3 * Y
        assert Polynomial() + pkg(p) == p

    def test_add_univariate_pair(self):
        # half-step combination of two quadratic nodal functions
        assert H * pkg((X - 1) * X) + pkg(X * (X + 1)) * H == X**2

    def test_multiply_expansion(self):
        assert pkg(1 - X) * pkg(1 - Y) == 1 - X - Y + X * Y

    def test_multiply_identity(self):
        p = 2 * X * Y - Y**3
        assert pkg(p) * pkg(ONE) == p

    def test_multiply_bubble(self):
        assert pkg(1 - X**2) * pkg(1 - Y**2) == 1 - X**2 - Y**2 + X**2 * Y**2

    def test_zero_terms_pruned(self):
        p = Polynomial({(1, 0): 1, (0, 1): 0})
        assert p.terms == {(1, 0): Fraction(1)}
        assert (pkg(X) + pkg(-X)).is_zero

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            Polynomial({(1, 0): 0.5})
        with pytest.raises(TypeError):
            Polynomial({(1, 0): 1}) * 0.5

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial({(0, -1): 1})


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

    @settings(max_examples=60, deadline=None)
    @given(polynomials, polynomials, st.fractions(min_value=-3, max_value=3, max_denominator=4))
    def test_sum_and_products_match_oracle(self, a, b, c):
        assert a + b == Poly.of(a) + Poly.of(b)
        assert a * b == Poly.of(a) * Poly.of(b)
        assert c * a == a * c == c * Poly.of(a)


@pytest.mark.parametrize("name", ["oracles.py", "reference_bases.py"])
def test_oracles_do_not_import_package_polynomial(name):
    """The oracles check `srdpeig.polynomial`, so they must not run on it."""
    tree = ast.parse((Path(__file__).parent / name).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    assert not {m for m in modules if m.split(".")[:2] == ["srdpeig", "polynomial"]}
