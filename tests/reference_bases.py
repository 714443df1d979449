"""Hand-entered reference bases for low orders.

Every entry below was transcribed in factored form and is verified exactly
(by the tests) against its defining interpolation conditions, so the tables
act as an independent record of the expected construction output.
"""

from fractions import Fraction

from oracles import ONE, Poly, X, Y

H = Fraction(1, 2)
Q = Fraction(1, 4)
SIXTH = Fraction(1, 6)

#: Univariate bases, order -> ordered list of basis functions.
REFERENCE_PHI = {
    1: [-H * (X - 1), H * (1 + X)],
    2: [H * (X - 1) * X, 1 - X**2, H * X * (X + 1)],
    3: [-H * (X - 1) * X**2, 1 - X**2, X - X**3, H * X**2 * (X + 1)],
    4: [
        H * (X - 1) * X**3,
        1 - X**4,
        X - X**3,
        -H * (X - 1) * X**2 * (X + 1),
        H * X**3 * (X + 1),
    ],
    5: [
        -H * (X - 1) * X**4,
        1 - X**4,
        X - X**5,
        -H * (X - 1) * X**2 * (X + 1),
        -SIXTH * (X - 1) * X**3 * (X + 1),
        H * X**4 * (X + 1),
    ],
}

_0 = Poly.zero()

#: Serendipity arrays, order -> (p+1) x (p+1) nested list in slot order
#: (row = x index, column = y index).
REFERENCE_SERENDIPITY = {
    1: [
        [Q * (1 - X) * (1 - Y), Q * (1 - X) * (Y + 1)],
        [Q * (X + 1) * (1 - Y), Q * (X + 1) * (Y + 1)],
    ],
    2: [
        [
            -Q * (X - 1) * (Y - 1) * (X + Y + 1),
            H * (X - 1) * (Y**2 - 1),
            Q * (X - 1) * (X - Y + 1) * (Y + 1),
        ],
        [H * (X**2 - 1) * (Y - 1), _0, -H * (X**2 - 1) * (Y + 1)],
        [
            Q * (Y - 1) * (-(X**2) + Y * X + Y + 1),
            -H * (X + 1) * (Y**2 - 1),
            Q * (X + 1) * (Y + 1) * (X + Y - 1),
        ],
    ],
    3: [
        [
            Q * (X - 1) * (Y - 1) * (X**2 + Y**2 - 1),
            H * (X - 1) * (Y**2 - 1),
            H * (X - 1) * Y * (Y**2 - 1),
            -Q * (X - 1) * (Y + 1) * (X**2 + Y**2 - 1),
        ],
        [H * (X**2 - 1) * (Y - 1), _0, _0, -H * (X**2 - 1) * (Y + 1)],
        [H * X * (X**2 - 1) * (Y - 1), _0, _0, H * (X - X**3) * (Y + 1)],
        [
            -Q * (X + 1) * (Y - 1) * (X**2 + Y**2 - 1),
            -H * (X + 1) * (Y**2 - 1),
            H * (X + 1) * (Y - Y**3),
            Q * (X + 1) * (Y + 1) * (X**2 + Y**2 - 1),
        ],
    ],
    4: [
        [
            -Q * (X - 1) * (Y - 1) * (X**3 - (Y + 1) * X + Y * (Y**2 - 1)),
            H * (Y**2 - 1) * (-(X**2) + Y**2 * X + X - Y**2),
            H * (X - 1) * Y * (Y**2 - 1),
            Q * (X - 1) * (Y - 1) * Y**2 * (Y + 1),
            Q * (X - 1) * (Y + 1) * (X**3 + (Y - 1) * X - Y**3 + Y),
        ],
        [
            H * (X**2 - 1) * (X**2 - Y) * (Y - 1),
            (X**2 - 1) * (Y**2 - 1),
            _0,
            _0,
            -H * (X**2 - 1) * (Y + 1) * (X**2 + Y),
        ],
        [H * X * (X**2 - 1) * (Y - 1), _0, _0, _0, H * (X - X**3) * (Y + 1)],
        [
            Q * (X - 1) * X**2 * (X + 1) * (Y - 1),
            _0,
            _0,
            _0,
            -Q * (X - 1) * X**2 * (X + 1) * (Y + 1),
        ],
        [
            Q * (X + 1) * (Y - 1) * (-(X**3) + Y * X + X + Y**3 - Y),
            -H * (Y**2 - 1) * (X**2 + Y**2 * X + X + Y**2),
            H * (X + 1) * (Y - Y**3),
            -Q * (X + 1) * (Y - 1) * Y**2 * (Y + 1),
            Q * (X + 1) * (Y + 1) * (X**3 + (Y - 1) * X + Y * (Y**2 - 1)),
        ],
    ],
}

assert ONE == Poly.of(1)
